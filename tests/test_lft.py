"""Cross/composite conjecture maps, best responses, and the iteration driver."""

import csv
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ccve import analysis, builders
from ccve.core import (Conjecture, Dims, assemble_blocks, eval_cost,
                       riccati_residual_norms)
from ccve.errors import DimensionMismatch, SingularBestResponse
from ccve.lft import (
    DIVERGENCE_NORM,
    IterationConfig,
    best_response,
    composite_step,
    iterate,
    lft_cross,
    offset_cross,
    predict,
    trace_header,
    write_trace_csv,
)

from conftest import (PARTNER_GAMES, WARM_L, WARM_XI, composite_blocks,
                      principal_angles, random_dense_game, scalar_game, uniform_pool)
from test_kernel_ledger import iteration_row


class TestCrossMap:
    def test_zero_slope_hand_value(self, warmup_game):
        # L = -(A^T)^{-1} B^T = -0.25 at L1 = 0.
        out = lft_cross(warmup_game, 1, [[0.0]])
        assert out[0, 0] == pytest.approx(-0.25, abs=1e-15)

    def test_warmup_fixed_point(self, warmup_game):
        # The symmetric stable slope maps to itself across players.
        out = lft_cross(warmup_game, 1, [[WARM_L]])
        assert out[0, 0] == pytest.approx(WARM_L, abs=1e-14)

    def test_singular_lhs_raises(self):
        # A^T + L^T B = 1 + 1 * (-1) = 0.
        g = scalar_game(q1=1.0, r1=1.0, s1=0.5)
        with pytest.raises(SingularBestResponse):
            lft_cross(g, 1, [[-1.0]])

    def test_matrix_shape_orientation(self, bench_game):
        # Player 1's map consumes L1 (d2 x d1) and emits L2 (d1 x d2).
        out = lft_cross(bench_game, 1, np.zeros((3, 2)))
        assert out.shape == (2, 3)
        out = lft_cross(bench_game, 2, np.zeros((2, 3)))
        assert out.shape == (3, 2)

    def test_matches_first_order_condition(self):
        # The returned affine rule is player 1's conjectured reaction map: for
        # any opponent action x2, the action x1 = L2 x2 + ell2 satisfies
        # player 1's stationarity condition with variation L1.
        rng = np.random.default_rng(4)
        g = random_dense_game(rng, 2, 3)
        L1 = rng.standard_normal((3, 2))
        L2 = lft_cross(g, 1, L1)
        ell2 = offset_cross(g, 1, L1)
        p = g.p1
        for _ in range(3):
            x2 = rng.standard_normal(3)
            x1 = L2 @ x2 + ell2
            grad = (p.A @ x1 + p.B.T @ x2 + p.a
                    + L1.T @ (p.B @ x1 + p.D @ x2 + p.b))
            assert np.linalg.norm(grad) < 1e-9 * (1 + np.linalg.norm(x2))


class TestOffsetMap:
    def test_zero_slope_hand_value(self):
        # ell = -(A)^{-T}(a + L^T b) = -a at L = 0 with A = 1.
        g = scalar_game(q1=1.0, r1=0.25, s1=0.0, w1=1.0, v1=0.5)
        out = offset_cross(g, 1, [[0.0]])
        assert out[0] == pytest.approx(-1.0, abs=1e-15)

    def test_slope_weighted_hand_value(self):
        g = scalar_game(q1=2.0, r1=0.25, s1=0.0, w1=1.0, v1=0.5)
        # ell = -(q + r L)^{-1} (w + L v) at L = 2: -(2.5)^{-1} (2) = -0.8.
        out = offset_cross(g, 1, [[2.0]])
        assert out[0] == pytest.approx(-0.8, abs=1e-15)


class TestCompositeStep:
    def test_scalar_from_zero(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        # (C + D*0)(A + B*0)^{-1} = 4 / -15.
        out = composite_step(blocks, 1, [[0.0]])
        assert out[0, 0] == pytest.approx(-4.0 / 15.0, abs=1e-15)

    def test_equals_two_cross_steps(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_dense_game(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            blocks = assemble_blocks(g)
            L1 = rng.standard_normal((g.dims.d2, g.dims.d1))
            one_shot = composite_step(blocks, 1, L1)
            chained = lft_cross(g, 2, lft_cross(g, 1, L1))
            assert np.allclose(one_shot, chained, atol=1e-10 * (1 + np.linalg.norm(one_shot)))
            L2 = rng.standard_normal((g.dims.d1, g.dims.d2))
            one_shot = composite_step(blocks, 2, L2)
            chained = lft_cross(g, 1, lft_cross(g, 2, L2))
            assert np.allclose(one_shot, chained, atol=1e-10 * (1 + np.linalg.norm(one_shot)))

    @pytest.mark.parametrize("games", PARTNER_GAMES[:2])  # the pool and 50x60 s0
    def test_player2_matches_partner_block_form(self, games):
        # (bA1 - L2 bC1)^{-1} (L2 bD1 - bB1) against the partner composite's
        # (bC2 + bD2 L2)(bA2 + bB2 L2)^{-1}, formed here, to 1e-12 relative
        # (4.4e-14 measured up to 200x240 s1).
        rng = np.random.default_rng(16)
        for game in games():
            blocks = assemble_blocks(game)
            d1, d2 = game.dims.d1, game.dims.d2
            L2 = 0.3 / np.sqrt(max(d1, d2)) * rng.standard_normal((d1, d2))
            bA2, bB2, bC2, bD2 = composite_blocks(blocks, 2)
            ref = np.linalg.solve((bA2 + bB2 @ L2).T, (bC2 + bD2 @ L2).T).T
            assert _rel(composite_step(blocks, 2, L2), ref) <= 1e-12

    def test_fixed_point_of_composite(self, warmup_game):
        blocks = assemble_blocks(warmup_game)
        out = composite_step(blocks, 1, [[WARM_L]])
        assert out[0, 0] == pytest.approx(WARM_L, abs=1e-14)


class TestBestResponse:
    def test_scalar_hand_value(self):
        # min 1/2 x^2 + w x under zero conjecture: x = -w.
        g = scalar_game(q1=1.0, r1=0.25, s1=0.0, w1=3.0)
        conj = Conjecture.create(1, [[0.0]], [0.0], g.dims)
        assert best_response(g, 1, conj)[0] == pytest.approx(-3.0)

    def test_stationarity_by_finite_differences(self):
        rng = np.random.default_rng(21)
        g = random_dense_game(rng, 3, 2)
        conj = Conjecture.create(1, rng.standard_normal((2, 3)) * 0.3,
                                 rng.standard_normal(2), g.dims)
        x = best_response(g, 1, conj)

        def phi(x1):
            from ccve.core import eval_cost
            return eval_cost(g, 1, x1, predict(conj, x1))

        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            grad_j = (phi(x + e) - phi(x - e)) / (2 * h)
            assert abs(grad_j) < 1e-6 * (1 + abs(phi(x)))

    def test_warns_when_not_certified_min(self):
        # Effective Hessian q + 2 r L + s L^2 = 1 - 4 < 0 at L = 2, s = -1.
        g = scalar_game(q1=1.0, r1=0.0, s1=-1.0)
        conj = Conjecture.create(1, [[2.0]], [0.0], g.dims)
        with pytest.warns(UserWarning, match="NotCertifiedMin"):
            best_response(g, 1, conj)

    def test_holder_mismatch_rejected(self, warmup_game):
        conj = Conjecture.create(1, [[0.0]], [0.0], warmup_game.dims)
        with pytest.raises(DimensionMismatch):
            best_response(warmup_game, 2, conj)


class TestPredict:
    def test_affine_rule(self):
        conj = Conjecture(holder=1, L=np.array([[2.0], [1.0]]), ell=np.array([0.5, -0.5]))
        assert np.allclose(predict(conj, [3.0]), [6.5, 2.5])

    def test_dimension_check(self):
        conj = Conjecture(holder=1, L=np.array([[2.0], [1.0]]), ell=np.array([0.5, -0.5]))
        with pytest.raises(DimensionMismatch):
            predict(conj, [1.0, 2.0])

    def test_non_finite_action_is_refused(self):
        # predict(conj, [nan]) returned [nan, nan].
        conj = Conjecture(holder=1, L=np.array([[2.0], [1.0]]), ell=np.array([0.5, -0.5]))
        with pytest.raises(DimensionMismatch, match="x1 contains non-finite entries"):
            predict(conj, [np.nan])


class TestIterationConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            IterationConfig(mode="gauss")

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iters=0)
        with pytest.raises(ValueError):
            IterationConfig(tol=0.0)

    @pytest.mark.parametrize("max_iters", [2.5, True, "3"])
    def test_rejects_a_max_iters_that_is_no_integer(self, max_iters):
        # 2.5 and True constructed, and 2.5 failed only in range(), after the
        # run had validated the game and solved the Nash init.
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            IterationConfig(max_iters=max_iters)

    def test_accepts_a_numpy_integer_max_iters(self, warmup_game):
        trace = iterate(warmup_game, IterationConfig(max_iters=np.int64(2), tol=1e-30))
        assert (trace.status, len(trace.steps)) == ("max_iters", 3)

    def test_rejects_nan_tol(self):
        # tol <= 0 is False for NaN, which would run every step to max_iters.
        with pytest.raises(ValueError, match="tol must be positive"):
            IterationConfig(tol=float("nan"))

    def test_rejects_infinite_tol(self):
        # Every finite change is below an infinite tol: step 1 would converge.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            IterationConfig(tol=float("inf"))

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_rejects_tol_of_one_or_more(self, tol):
        # The step change of a run from the Nash init is below 1e300 at step
        # 1, so such a tol would report "converged" at once.
        with pytest.raises(ValueError, match="below 1"):
            IterationConfig(tol=tol)


class TestIterate:
    @pytest.mark.parametrize("mode", ["cross", "composite"])
    def test_warmup_converges_to_stable_slope(self, warmup_game, mode):
        trace = iterate(warmup_game, IterationConfig(mode=mode, max_iters=50, tol=1e-12))
        assert trace.status == "converged"
        assert trace.final.L1[0, 0] == pytest.approx(WARM_L, abs=1e-10)
        assert trace.final.L2[0, 0] == pytest.approx(WARM_L, abs=1e-10)

    def test_nash_initialization(self, bench_game):
        trace = iterate(bench_game, IterationConfig(max_iters=1, tol=1e-30))
        x1ne, x2ne = analysis.nash(bench_game)
        first = trace.steps[0]
        assert np.allclose(first.L1, 0.0)
        assert np.allclose(first.L2, 0.0)
        assert np.allclose(first.ell1, x2ne)
        assert np.allclose(first.ell2, x1ne)
        # At the zero conjecture the best responses are the Nash actions.
        assert np.allclose(first.x1, x1ne, atol=1e-12)
        assert np.allclose(first.x2, x2ne, atol=1e-12)

    def test_starts_at_fixed_point_converges_immediately(self, warmup_game):
        dims = warmup_game.dims
        init = (Conjecture.create(1, [[WARM_L]], [0.0], dims),
                Conjecture.create(2, [[WARM_L]], [0.0], dims))
        trace = iterate(warmup_game, IterationConfig(init=init, tol=1e-10))
        assert trace.status == "converged"
        assert trace.status_iter == 1

    def test_init_holder_order_enforced(self, warmup_game):
        dims = warmup_game.dims
        c1 = Conjecture.create(1, [[0.0]], [0.0], dims)
        c2 = Conjecture.create(2, [[0.0]], [0.0], dims)
        with pytest.raises(DimensionMismatch):
            iterate(warmup_game, IterationConfig(init=(c2, c1)))

    @pytest.mark.parametrize("mode", ["cross", "composite"])
    @pytest.mark.filterwarnings("ignore:NotCertifiedMin")
    def test_divergence_detected(self, mode):
        # boldM1 = [[0.5, 0], [0.5, 1]]: the slope map is v -> 1 + 2v, which
        # runs off to infinity from the zero-conjecture start.
        g = scalar_game(q1=2.0, r1=1.0, s1=1.0, q2=1.0, r2=1.0, s2=3.0)
        trace = iterate(g, IterationConfig(mode=mode, max_iters=100, tol=1e-10))
        assert trace.status == "diverged"
        assert np.linalg.norm(trace.final.L1) > 1e12

    @pytest.mark.parametrize("mode, status, status_iter", [
        ("cross", "converged", 9), ("composite", "converged", 5)])
    def test_norms_between_half_and_divergence_norm(self, mode, status, status_iter):
        # Linear terms of 8e11 put the offsets near 8.6e11 at every step:
        # past DIVERGENCE_NORM / 2, where the run computes the four norms, and
        # below DIVERGENCE_NORM, so the run converges as if they were small.
        g = scalar_game(q1=1.0, r1=0.25, s1=0.0, w1=8e11, w2=8e11)
        trace = iterate(g, IterationConfig(mode=mode, max_iters=100, tol=1e-10))
        assert (trace.status, trace.status_iter, len(trace.steps)) == \
            (status, status_iter, status_iter + 1)
        norms = [max(map(np.linalg.norm, (st.L1, st.L2, st.ell1, st.ell2)))
                 for st in trace.steps]
        assert all(DIVERGENCE_NORM / 2 < n < DIVERGENCE_NORM for n in norms)

    @pytest.mark.parametrize("mode, status_iter", [("cross", 80), ("composite", 40)])
    @pytest.mark.filterwarnings("ignore:NotCertifiedMin")
    def test_divergence_step_after_half_the_norm(self, mode, status_iter):
        # test_divergence_detected's game: the norms pass DIVERGENCE_NORM / 2
        # (5.5e11) before they pass DIVERGENCE_NORM (1.1e12), one step before
        # in composite mode; in cross mode the slopes swap players, and the
        # largest norm falls back to 1 in between.
        g = scalar_game(q1=2.0, r1=1.0, s1=1.0, q2=1.0, r2=1.0, s2=3.0)
        trace = iterate(g, IterationConfig(mode=mode, max_iters=100, tol=1e-10))
        assert (trace.status, trace.status_iter, len(trace.steps)) == \
            ("diverged", status_iter, status_iter + 1)
        norms = [max(map(np.linalg.norm, (st.L1, st.L2, st.ell1, st.ell2)))
                 for st in trace.steps]
        assert any(DIVERGENCE_NORM / 2 < n < DIVERGENCE_NORM for n in norms[:-1])
        assert max(norms[:-1]) < DIVERGENCE_NORM < norms[-1]

    @pytest.mark.filterwarnings("ignore:NotCertifiedMin")
    def test_elliptic_game_hits_max_iters(self):
        # Complex slope fixed points: the real iteration cannot settle.
        g = scalar_game(q1=1.5, r1=0.6, s1=-1.5, q2=1.4, r2=1.8, s2=1.6)
        trace = iterate(g, IterationConfig(mode="composite", max_iters=50, tol=1e-10))
        assert trace.status == "max_iters"
        assert trace.status_iter == 50

    def test_converged_trace_invariants(self, bench_game):
        trace = iterate(bench_game, IterationConfig(max_iters=100, tol=1e-10))
        assert trace.status == "converged"
        final = trace.steps[-1]
        assert max(final.res1, final.res2) < 10 * 1e-10
        # Prediction consistency at the fixed point.
        assert np.linalg.norm(final.xhat2 - final.x2) < 1e-8
        assert np.linalg.norm(final.xhat1 - final.x1) < 1e-8
        assert final.f_social == pytest.approx(final.f1 + final.f2)
        assert trace.steps[0].iteration == 0
        assert [s.iteration for s in trace.steps] == list(range(len(trace.steps)))

    def test_contraction_rate_matches_multiplier(self, warmup_game):
        trace = iterate(warmup_game, IterationConfig(mode="composite",
                                                     max_iters=8, tol=1e-30))
        errs = [abs(s.L1[0, 0] - WARM_L) for s in trace.steps]
        # Skip the first step (nonlinear transient) and the rounding floor.
        rates = [errs[k + 1] / errs[k] for k in range(1, 4) if errs[k] > 1e-12]
        for r in rates:
            assert r == pytest.approx(WARM_XI, rel=0.05)

    def test_k_step_slopes_match_subspace_images(self):
        # Composite-mode slope iterates are graphs of boldM1^k applied to the
        # initial graph subspace.
        g = uniform_pool(1, seed0=3, dmax=4)[0]
        blocks = assemble_blocks(g)
        d1, d2 = g.dims.d1, g.dims.d2
        L0 = np.zeros((d2, d1))
        trace = iterate(g, IterationConfig(mode="composite", max_iters=10, tol=1e-30))
        V = np.vstack([np.eye(d1), L0])
        for k in range(1, min(10, len(trace.steps) - 1) + 1):
            V = blocks.boldM1 @ V
            Lk = trace.steps[k].L1
            W = np.vstack([np.eye(d1), Lk])
            assert np.max(principal_angles(V, W)) < 1e-6

    def test_singular_record_ends_the_run(self):
        # Step 1 maps L2 = -2 to L1 = 1 exactly, where S1 = 1 - L1^2 = 0.
        g = scalar_game(q1=1.0, r1=0.0, s1=-1.0, q2=1.0, r2=0.0, s2=0.5)
        init = (Conjecture.create(1, [[0.0]], [0.0], g.dims),
                Conjecture.create(2, [[-2.0]], [0.0], g.dims))
        trace = iterate(g, IterationConfig(init=init))
        assert (trace.status, trace.status_iter) == ("singular", 1)
        assert len(trace.steps) == 1 and trace.change is None

    def test_singular_offset_ends_the_run_at_its_step(self):
        # P1 = q1 + r1 L1 = 1 + L1. Step 1 maps L1 = -0.5 to L2 = 1 and
        # step 2 maps L2 = 1 to L1 = -s2 L2 = -1 exactly, so P1^T is singular
        # at step 2: the offset and the next slope map share that one LU.
        g = scalar_game(q1=1.0, r1=1.0, s1=3.0, q2=1.0, r2=0.0, s2=1.0)
        init = (Conjecture.create(1, [[-0.5]], [0.0], g.dims),
                Conjecture.create(2, [[0.0]], [0.0], g.dims))
        trace = iterate(g, IterationConfig(mode="cross", init=init))
        assert (trace.status, trace.status_iter, len(trace.steps)) == ("singular", 2, 2)
        assert trace.steps[1].L2[0, 0] == 1.0

    def test_singular_initial_record_raises(self):
        # No step can be returned when the initial conjecture's S1 = 0.
        g = scalar_game(q1=1.0, r1=0.0, s1=-1.0, q2=1.0, r2=0.0, s2=0.5)
        init = (Conjecture.create(1, [[1.0]], [0.0], g.dims),
                Conjecture.create(2, [[0.0]], [0.0], g.dims))
        with pytest.raises(SingularBestResponse):
            iterate(g, IterationConfig(init=init))

    def test_non_finite_action_raises(self):
        # S1 = 1 - L1^2 is about 2**-49 and the right-hand side about -1e300,
        # so x1 overflows to inf in the initial record.
        g = scalar_game(q1=1.0, r1=0.0, s1=-1.0, q2=1.0, r2=0.0, s2=0.5)
        init = (Conjecture.create(1, [[1.0 - 2.0**-50]], [1e300], g.dims),
                Conjecture.create(2, [[0.0]], [0.0], g.dims))
        with pytest.raises(DimensionMismatch, match="x1 contains non-finite entries"):
            iterate(g, IterationConfig(init=init))

    @pytest.mark.parametrize("field, value", [
        ("L1", np.zeros((2, 3))),  # as Conjecture.create(1, ..., Dims(3, 2)) makes it
        ("L1", np.full((3, 2), np.nan)),
        ("ell1", np.zeros(2)),
        ("L2", np.zeros((3, 2))),
        ("ell2", np.array([np.inf, 0.0])),
    ], ids=["L1-transposed", "L1-nan", "ell1-short", "L2-transposed", "ell2-inf"])
    def test_init_that_is_not_of_the_game_rejected(self, bench_game, field, value):
        # Conjecture itself checks nothing; iterate checks each L and ell
        # against the 2x3 game as Conjecture.create would.
        parts = {"L1": np.zeros((3, 2)), "ell1": np.zeros(3),
                 "L2": np.zeros((2, 3)), "ell2": np.zeros(2), field: value}
        init = (Conjecture(1, parts["L1"], parts["ell1"]),
                Conjecture(2, parts["L2"], parts["ell2"]))
        with pytest.raises(DimensionMismatch, match=f"^{field} "):
            iterate(bench_game, IterationConfig(init=init))

    def test_overflowing_cost_is_recorded(self):
        # x_i = -0.5e308 is finite, but the cost 0.5 x_i^2 + ... overflows.
        # Neither the cost nor the step-change norm, which squares the
        # offsets' change of about 1e308, warns of the overflow.
        g = scalar_game(q1=1.0, r1=0.5, s1=0.0)
        init = (Conjecture.create(1, [[0.0]], [1e308], g.dims),
                Conjecture.create(2, [[0.0]], [1e308], g.dims))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = iterate(g, IterationConfig(init=init, max_iters=3))
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        first = trace.steps[0]
        assert np.isfinite(first.x1).all() and np.isfinite(first.x2).all()
        assert first.f1 == np.inf
        assert (trace.status, trace.status_iter, len(trace.steps)) == ("max_iters", 3, 4)

    @pytest.mark.parametrize("game", ["2x3", "50x60"])
    @pytest.mark.parametrize("mode", ["cross", "composite"])
    def test_each_step_forms_slope_terms_once(self, count_calls, game, mode):
        # n steps: two slopes' terms at the start and two per step, from the
        # two players' cost rows built once a run, and the kernels of the
        # ledger's n-step row for the mode.
        g = (builders.example1_game() if game == "2x3"
             else builders.random_game(50, 60, recipe="paper7ex2", seed=0))
        calls = count_calls("_slope_terms", "_cost_rows")
        trace = iterate(g, IterationConfig(mode=mode, tol=1e-10))
        assert trace.status == "converged"
        n = len(trace.steps) - 1
        assert calls == iteration_row(mode, n) + Counter(_slope_terms=2 * n + 2,
                                                         _cost_rows=2)
        if (game, mode) == ("50x60", "cross"):
            assert (n, calls["dgetrf"]) == (29, 63)

    @pytest.mark.parametrize("max_iters", [1, 10])
    @pytest.mark.parametrize("mode", ["cross", "composite"])
    def test_each_run_stacks_m_once(self, count_calls, bench_game, mode, max_iters):
        # M1 and M2 are stacked and factored once a run, and the Nash system
        # stacked once; the record reads the stacked M1 and M2 at every step.
        calls = count_calls("_factor_m", "_stack")
        trace = iterate(bench_game, IterationConfig(mode=mode, max_iters=max_iters,
                                                    tol=1e-30))
        assert len(trace.steps) == max_iters + 1
        assert (calls["_factor_m"], calls["_stack"]) == (1, 3)

    def test_one_not_certified_min_warning_a_run(self):
        # From 100x120 up paper7ex2 leaves S_i indefinite at most steps; the
        # run warns once, naming the first step and player.
        g = builders.random_game(100, 120, recipe="paper7ex2", seed=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = iterate(g, IterationConfig(max_iters=20))
        assert len(trace.steps) == 21
        messages = [str(w.message) for w in caught]
        assert len(messages) == 1
        assert messages[0].startswith("NotCertifiedMin: player 1's effective "
                                      "Hessian is not positive definite at step 2,")


def _rel(a, b):
    return np.linalg.norm(np.subtract(a, b)) / max(np.linalg.norm(b), 1e-300)


RECORD_GAMES = [pytest.param(g, id=f"pool{j}")
                for j, g in enumerate(uniform_pool(100))]
RECORD_GAMES += [
    pytest.param(builders.random_game(50, 60, recipe="paper7ex2", seed=0),
                 id="paper7ex2-50x60-s0"),
    pytest.param(builders.example1_game(), id="2x3"),
]


@pytest.mark.parametrize("mode", ["cross", "composite"])
@pytest.mark.parametrize("game", RECORD_GAMES)
@pytest.mark.filterwarnings("ignore:NotCertifiedMin")
def test_recorded_steps_match_public_functions(game, mode):
    # Every quantity the trace records, and every map step between two
    # recorded steps, agrees with the public function evaluated at that
    # step's (L, ell): terms carried from the wrong slope would not.
    trace = iterate(game, IterationConfig(mode=mode, max_iters=60))
    blocks = assemble_blocks(game) if mode == "composite" else None
    tol = 1e-12
    for k, st in enumerate(trace.steps):
        c1 = Conjecture(holder=1, L=st.L1, ell=st.ell1)
        c2 = Conjecture(holder=2, L=st.L2, ell=st.ell2)
        x1, x2 = best_response(game, 1, c1), best_response(game, 2, c2)
        assert _rel(st.x1, x1) <= tol and _rel(st.x2, x2) <= tol
        assert _rel(st.xhat2, predict(c1, x1)) <= tol
        assert _rel(st.xhat1, predict(c2, x2)) <= tol
        # The record and eval_cost evaluate both costs by one helper.
        assert st.f1 == eval_cost(game, 1, x1, x2)
        assert st.f2 == eval_cost(game, 2, x1, x2)
        assert _rel((st.res1, st.res2),
                    riccati_residual_norms(game, st.L1, st.L2)) <= tol
        if k + 1 == len(trace.steps):
            break
        nxt = trace.steps[k + 1]
        if blocks is None:
            L1n, L2n = lft_cross(game, 2, st.L2), lft_cross(game, 1, st.L1)
        else:
            L1n = composite_step(blocks, 1, st.L1)
            L2n = composite_step(blocks, 2, st.L2)
        assert _rel(nxt.L1, L1n) <= tol and _rel(nxt.L2, L2n) <= tol
        assert _rel(nxt.ell1, offset_cross(game, 2, nxt.L2)) <= tol
        assert _rel(nxt.ell2, offset_cross(game, 1, nxt.L1)) <= tol


# The composite map is two cross steps, so composite step k and cross step 2k
# agree up to rounding. The two runs reach them through independent code: the
# cross run solves with P_i^T, the composite run with the blocks of boldM1.
# Each entry agrees within COMPOSITE_AS_CROSS_EPS * eps of the field's largest
# entry at that step (the largest seen is 124, in L1 of paper7ex2 50x60 s4).
COMPOSITE_AS_CROSS_EPS = 1000


@pytest.mark.parametrize("game, k_max", [
    pytest.param(builders.example1_game(), 12, id="2x3"),
    pytest.param(builders.random_game(50, 60, recipe="paper7ex2", seed=4), 10,
                 id="paper7ex2-50x60-s4"),
])
def test_composite_step_k_is_cross_step_2k(game, k_max):
    cross = iterate(game, IterationConfig(mode="cross", max_iters=2 * k_max, tol=1e-300))
    comp = iterate(game, IterationConfig(mode="composite", max_iters=k_max, tol=1e-300))
    assert len(cross.steps) == 2 * k_max + 1 and len(comp.steps) == k_max + 1
    eps = np.finfo(float).eps
    for k, st in enumerate(comp.steps):
        ref = cross.steps[2 * k]
        for field in ("L1", "L2", "ell1", "ell2", "x1", "x2"):
            a, b = getattr(st, field), getattr(ref, field)
            bound = COMPOSITE_AS_CROSS_EPS * eps * np.abs(b).max()
            assert np.abs(a - b).max() <= bound, (k, field)


# Golden traces of example1_game (tol 1e-10), written by write_trace_csv,
# with the status and status_iter of their runs.
GOLDEN_DIR = Path(__file__).parent / "data"
GOLDEN_RUNS = {"cross": ("converged", 25), "composite": ("converged", 13)}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTraceCsv:
    def test_header_layout(self, bench_game):
        cols = trace_header(bench_game.dims)
        assert cols[0] == "iter"
        assert cols[-5:] == ["f1", "f2", "f_social", "res1", "res2"]
        # L1 is d2 x d1 = 3 x 2, flattened row-major.
        assert cols[1:7] == ["L1_00", "L1_01", "L1_10", "L1_11", "L1_20", "L1_21"]
        d1, d2 = bench_game.dims.d1, bench_game.dims.d2
        n_vec = 2 * (d1 + d2)  # x and xhat for both players
        assert len(cols) == 1 + 2 * d1 * d2 + (d1 + d2) + n_vec + 5

    @pytest.mark.parametrize("dims", [Dims(3, 2), Dims(1, 1)], ids=["3x2", "1x1"])
    def test_dims_that_are_not_the_traces_rejected(self, tmp_path, bench_game, dims):
        trace = iterate(bench_game, IterationConfig(max_iters=2))
        path = tmp_path / "trace.csv"
        with pytest.raises(DimensionMismatch, match="is not the trace's"):
            write_trace_csv(trace, dims, path)
        assert not path.exists()

    def test_round_trip_full_precision(self, tmp_path, bench_game):
        trace = iterate(bench_game, IterationConfig(max_iters=5, tol=1e-30))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, bench_game.dims, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(trace.steps)
        last = rows[-1]
        st_last = trace.steps[-1]
        assert int(last["iter"]) == st_last.iteration
        # 17 significant digits round-trip doubles exactly.
        assert float(last["L1_00"]) == st_last.L1[0, 0]
        assert float(last["f_social"]) == st_last.f_social
        assert float(last["res2"]) == st_last.res2

    @pytest.mark.parametrize("mode", ["cross", "composite"])
    def test_matches_golden_trace(self, tmp_path, bench_game, mode):
        # Status and step count exactly; every recorded value to 1e-12
        # relative, so a change to how a step is computed cannot move them.
        trace = iterate(bench_game, IterationConfig(mode=mode, tol=1e-10))
        assert (trace.status, trace.status_iter) == GOLDEN_RUNS[mode]
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, bench_game.dims, path)
        fresh = _read_csv(path)
        golden = _read_csv(GOLDEN_DIR / f"example1_trace_{mode}.csv")
        assert fresh[0] == golden[0]
        assert len(fresh) == len(golden) == trace.status_iter + 2
        np.testing.assert_allclose(np.array(fresh[1:], dtype=float),
                                   np.array(golden[1:], dtype=float),
                                   rtol=1e-12, atol=0)
