"""Data model, validation, cost evaluation, block assembly, game JSON, the
LAPACK loader and the package's exported names."""

import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ccve
from ccve import builders, cli, core, equilibrium, lft, spectral, stability
from ccve.core import (
    QuadraticGame,
    assemble_blocks,
    eval_cost,
    game_from_dict,
    game_to_dict,
    load_game,
    riccati_residual,
    riccati_residual_norms,
    save_game,
    stacked_m1,
    stacked_m2,
    validate_game,
)
from ccve.errors import ANotPositiveDefinite, DimensionMismatch, EigFailure, MSingular

from conftest import (PARTNER_GAMES, WARM_L, partner_composite, random_dense_game,
                      random_lq_spec, scalar_game, uniform_pool)

# Values that are no player index: only the int 1 or 2 is one.
NOT_PLAYER_INDICES = [0, 3, -1, 1.0, 2.0, True, np.float64(2.0), "1", None]


class TestValidation:
    def test_accepts_posdef_scalar_game(self):
        # q = s = 1, r = 0.5: det(M_i) = 0.75 != 0 and A_i = 1 > 0.
        g = scalar_game(q1=1.0, r1=0.5, s1=1.0)
        assert validate_game(g) is g

    def test_rejects_nonposdef_a(self):
        g = QuadraticGame.create(
            1, 1, ([[-1.0]], [[0.2]], [[1.0]], [0.0], [0.0]),
            ([[1.0]], [[0.2]], [[1.0]], [0.0], [0.0]),
        )
        with pytest.raises(ANotPositiveDefinite):
            validate_game(g)

    def test_rejects_singular_m(self):
        # q = s = r = 1 makes M1 = [[1, 1], [1, 1]] exactly singular.
        g = QuadraticGame.create(
            1, 1, ([[1.0]], [[1.0]], [[1.0]], [0.0], [0.0]),
            ([[1.0]], [[0.2]], [[1.0]], [0.0], [0.0]),
        )
        with pytest.raises(MSingular):
            validate_game(g)

    @staticmethod
    def game_with_min_eig(t):
        """A 2x1 game whose A1 is a rotation of diag(t, 1)."""
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        A1 = R @ np.diag([t, 1.0]) @ R.T
        return QuadraticGame.create(
            2, 1, (A1, np.zeros((1, 2)), [[1.0]], np.zeros(2), [0.0]),
            ([[1.0]], [[0.2], [0.1]], np.eye(2), [0.0], np.zeros(2)),
        )

    def spy_min_eig(self, monkeypatch):
        calls = []
        min_eig = core._min_eig

        def spy(a):
            calls.append(np.shape(a))
            return min_eig(a)
        monkeypatch.setattr(core, "_min_eig", spy)
        return calls

    @pytest.mark.parametrize("n", list(range(1, 9)) + [50, 120])
    def test_min_eig_is_the_smallest_eigenvalue(self, n):
        # dsyevr computes the one eigenvalue; it agrees with numpy's full
        # spectrum to 2 n eps ||S||_2 (0.7 n eps ||S||_2 measured on random
        # S up to n = 240), both being backward stable.
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 1e3):
            S = scale * rng.standard_normal((n, n))
            S = S + S.T
            bound = 2 * n * np.finfo(float).eps * np.linalg.norm(S, 2)
            assert abs(core._min_eig(S) - np.linalg.eigvalsh(S)[0]) <= bound

    def test_a_above_posdef_threshold_passes_by_cholesky(self, monkeypatch):
        # POSDEF_EIG_MIN = 1e-10: A1 - 1e-10 I has a Cholesky factor, so
        # no eigenvalue is computed.
        g = self.game_with_min_eig(2e-10)
        calls = self.spy_min_eig(monkeypatch)
        assert validate_game(g) is g
        assert calls == []

    def test_a_below_posdef_threshold_reports_min_eig(self, monkeypatch):
        g = self.game_with_min_eig(5e-11)
        calls = self.spy_min_eig(monkeypatch)
        with pytest.raises(ANotPositiveDefinite,
                           match=r"A1 .* \(min eigenvalue 5\.000e-11\)") as exc:
            validate_game(g)
        assert exc.value.player == 1
        assert exc.value.min_eig == pytest.approx(5e-11, rel=1e-4)
        assert calls == [(2, 2)]

    def test_assemble_blocks_checks_a_before_m(self):
        # A1 = -1 and M1 = [[-1, 1], [1, -1]] singular: A_i > 0 is checked first.
        g = QuadraticGame.create(
            1, 1, ([[-1.0]], [[1.0]], [[-1.0]], [0.0], [0.0]),
            ([[1.0]], [[0.2]], [[1.0]], [0.0], [0.0]),
        )
        with pytest.raises(ANotPositiveDefinite):
            assemble_blocks(g)

    @pytest.mark.parametrize("call", [
        equilibrium.solve_ccve,
        equilibrium.solve_via_generalized,
        equilibrium.enumerate_fixed_points,
        lambda g: lft.iterate(g, lft.IterationConfig(mode="composite", max_iters=2)),
    ], ids=["solve", "qz", "enumerate", "iterate-composite"])
    def test_each_call_factors_m_once(self, count_calls, bench_game, call):
        calls = count_calls("_factor_m")
        call(bench_game)
        assert calls["_factor_m"] == 1

    @staticmethod
    def spy_spectra(monkeypatch):
        """Record calls to perturbation_spectrum (its player) and np.linalg.eigvals."""
        calls = {"perturbation_spectrum": [], "eigvals": []}
        spectrum, eigvals = stability.perturbation_spectrum, np.linalg.eigvals

        def spy_spectrum(blocks, i, L_i):
            calls["perturbation_spectrum"].append(i)
            return spectrum(blocks, i, L_i)

        def spy_eigvals(a):
            calls["eigvals"].append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(stability, "perturbation_spectrum", spy_spectrum)
        monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
        return calls

    @pytest.mark.parametrize("call", [
        equilibrium.solve_ccve,
        equilibrium.solve_via_generalized,
        equilibrium.enumerate_fixed_points,
    ], ids=["solve", "qz", "enumerate"])
    def test_solves_read_the_certificate_off_the_schur_form(
            self, monkeypatch, bench_game, call):
        calls = self.spy_spectra(monkeypatch)
        call(bench_game)
        assert calls == {"perturbation_spectrum": [], "eigvals": []}

    def test_check_recomputes_the_certificate(self, monkeypatch, tmp_path, bench_game):
        game_path, sol_path = tmp_path / "game.json", tmp_path / "sol.json"
        save_game(bench_game, game_path)
        equilibrium.save_solution(equilibrium.solve_ccve(bench_game), sol_path)
        calls = self.spy_spectra(monkeypatch)
        assert cli.main(["check", "--game", str(game_path),
                         "--solution", str(sol_path)]) == cli.EXIT_OK
        assert calls["perturbation_spectrum"] == [2, 1]
        assert len(calls["eigvals"]) == 4

    def test_symmetrization_warns_on_asymmetric_d(self):
        D1 = [[0.1, 0.3], [0.0, 0.2]]
        with pytest.warns(UserWarning, match="not symmetric"):
            g = QuadraticGame.create(
                1, 2,
                ([[1.0]], [[0.1], [0.1]], D1, [0.0], [0.0, 0.0]),
                (np.eye(2), [[0.1, 0.1]], [[0.1]], [0.0, 0.0], [0.0]),
            )
        assert np.allclose(g.p1.D, [[0.1, 0.15], [0.15, 0.2]])

    def test_symmetrization_norms_do_not_overflow(self):
        # ||A_i||_F^2 overflowed in np.linalg.norm, a RuntimeWarning that
        # pyproject.toml makes an error; the asymmetry test still reads it.
        g = builders.random_game(2, 3, "uniform", lo=0, hi=1e300)
        assert g.p1.A[0, 0] == 1.0 + 2.0 * 1e300 * 3
        with pytest.warns(UserWarning, match="A1 is not symmetric"):
            QuadraticGame.create(
                2, 1, (1e300 * np.array([[1.0, 1e-7], [0.0, 1.0]]), [[0.1, 0.1]],
                       [[0.1]], [0.0, 0.0], [0.0]),
                ([[1.0]], [[0.1], [0.1]], np.eye(2), [0.0], [0.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            QuadraticGame.create(
                2, 1, (np.eye(2), [[0.1]], [[0.1]], [0.0, 0.0], [0.0]),
                ([[1.0]], [[0.1, 0.1]], np.eye(2), [0.0], [0.0, 0.0]),
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(DimensionMismatch):
            QuadraticGame.create(
                1, 1, ([[np.nan]], [[0.1]], [[0.0]], [0.0], [0.0]),
                ([[1.0]], [[0.1]], [[0.0]], [0.0], [0.0]),
            )


class TestEvalCost:
    def test_pure_quadratic_hand_value(self):
        # f1(x) = 1/2 x1^2 + w x1 with q=1, r=s=0, w=1: f1(2, 3) = 2 + 2 = 4.
        g = scalar_game(q1=1.0, r1=0.0, s1=0.5, w1=1.0)
        assert eval_cost(g, 1, [2.0], [3.0]) == pytest.approx(4.0 + 0.5 * 0.5 * 9)

    def test_cross_term_hand_value(self):
        # f1 = 1/2 q x1^2 + r x1 x2: q=2, r=3 at (1, 1) gives 1 + 3 = 4.
        g = scalar_game(q1=2.0, r1=3.0, s1=0.0)
        assert eval_cost(g, 1, [1.0], [1.0]) == pytest.approx(4.0)

    def test_matches_stacked_quadratic_form(self):
        rng = np.random.default_rng(3)
        g = random_dense_game(rng, 3, 2)
        x1 = rng.standard_normal(3)
        x2 = rng.standard_normal(2)
        z1 = np.concatenate([x1, x2])
        f1 = 0.5 * z1 @ stacked_m1(g) @ z1 + np.concatenate([g.p1.a, g.p1.b]) @ z1
        z2 = np.concatenate([x2, x1])
        M2p = np.block([[g.p2.A, g.p2.B.T], [g.p2.B, g.p2.D]])
        f2 = 0.5 * z2 @ M2p @ z2 + np.concatenate([g.p2.a, g.p2.b]) @ z2
        assert eval_cost(g, 1, x1, x2) == pytest.approx(f1, rel=1e-12)
        assert eval_cost(g, 2, x1, x2) == pytest.approx(f2, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("player", [1, 2])
    @pytest.mark.parametrize("game", ["2x3", "uncoupled"])
    def test_non_finite_action_gives_non_finite_costs(self, game, player, bad):
        # The iteration record reads the actions only when a cost is not
        # finite, so any non-finite entry must make both costs non-finite,
        # also where it meets a zero block (uncoupled: B_i = 0), and the
        # product must not warn under the errstate iterate holds for a run.
        g = builders.example1_game() if game == "2x3" else scalar_game(q1=1.0, r1=0.0, s1=-1.0)
        x1, x2 = np.ones(g.dims.d1), np.ones(g.dims.d2)
        (x1 if player == 1 else x2)[0] = bad
        operands = core._cost_operands(g, stacked_m1(g), stacked_m2(g))
        with warnings.catch_warnings(), np.errstate(invalid="ignore", over="ignore"):
            warnings.simplefilter("error")
            f1, f2 = core._costs(operands, x1, x2)
        assert not np.isfinite(f1) and not np.isfinite(f2)

    @pytest.mark.parametrize("i", NOT_PLAYER_INDICES)
    def test_player_index_other_than_1_or_2_rejected(self, i):
        # 1.0 ended in a raw TypeError and True gave f1.
        g = builders.example1_game()
        msg = re.escape(f"player index must be 1 or 2, got {i!r}")
        with pytest.raises(DimensionMismatch, match=msg):
            g.player(i)
        with pytest.raises(DimensionMismatch, match=msg):
            eval_cost(g, i, np.ones(2), np.ones(3))

    def test_overflowing_cost_is_infinite(self):
        # Finite actions whose cost overflows give inf, without a warning.
        g = scalar_game(q1=1.0, r1=0.5, s1=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_cost(g, 1, [-0.5e308], [-0.5e308]) == np.inf

    @given(st.integers(0, 10**6), st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_pure_quadratic_scales_quadratically(self, seed, t):
        rng = np.random.default_rng(seed)
        g = QuadraticGame.create(
            2, 2,
            (np.eye(2), rng.standard_normal((2, 2)), 0.1 * np.eye(2),
             np.zeros(2), np.zeros(2)),
            (np.eye(2), rng.standard_normal((2, 2)), 0.1 * np.eye(2),
             np.zeros(2), np.zeros(2)),
        )
        x1 = rng.standard_normal(2)
        x2 = rng.standard_normal(2)
        f = eval_cost(g, 1, x1, x2)
        ft = eval_cost(g, 1, t * x1, t * x2)
        assert ft == pytest.approx(t * t * f, rel=1e-9, abs=1e-12)


class TestAssembleBlocks:
    def test_scalar_warmup_composite(self, warmup_game):
        # M1 = [[1, 0.25], [0.25, 0]], M2^{-T} = inv([[0, 0.25], [0.25, 1]]).
        # Hand inversion gives boldM1 = [[-15, -4], [4, 1]].
        blocks = assemble_blocks(warmup_game)
        assert np.allclose(blocks.boldM1, [[-15.0, -4.0], [4.0, 1.0]], atol=1e-12)
        # With both M_i symmetric, the partner M1^{-T} M2 is boldM1^{-1}.
        partner = partner_composite(blocks)
        assert np.allclose(partner, [[1.0, 4.0], [-4.0, -15.0]], atol=1e-12)

    def test_decoupled_game_is_block_diagonal(self):
        # With B1 = B2 = 0, boldM1 = blkdiag(D2^{-T} A1, A2^{-T} D1).
        g = QuadraticGame.create(
            2, 1, (2.0 * np.eye(2), np.zeros((1, 2)), [[0.5]], np.zeros(2), [0.0]),
            ([[1.0]], np.zeros((2, 1)), np.diag([0.25, 4.0]), [0.0], np.zeros(2)),
        )
        blocks = assemble_blocks(g)
        expected = np.diag([8.0, 0.5, 0.5])
        assert np.allclose(blocks.boldM1, expected, atol=1e-12)

    def test_block_partition_matches_slices(self):
        g = uniform_pool(1, seed0=17, dmax=4)[0]
        blocks = assemble_blocks(g)
        d1 = g.dims.d1
        bm1 = blocks.boldM1
        A1, B1, C1, D1 = blocks.bold_blocks()
        assert np.array_equal(A1, bm1[:d1, :d1])
        assert np.array_equal(B1, bm1[:d1, d1:])
        assert np.array_equal(C1, bm1[d1:, :d1])
        assert np.array_equal(D1, bm1[d1:, d1:])
        # The blocks are views of boldM1, not copies.
        for block in (A1, B1, C1, D1):
            assert np.shares_memory(block, bm1)
        # Player 2's partner composite is not stored: boldM1 is the only one.
        assert not hasattr(blocks, "boldM2")

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_and_reciprocal_spectra(self, seed):
        rng = np.random.default_rng(seed)
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(1, 4))
        g = random_dense_game(rng, d1, d2)
        try:
            blocks = assemble_blocks(g)
        except MSingular:
            assume(False)
        # Defining identity: M2^T boldM1 = M1.
        assert np.allclose(blocks.M2.T @ blocks.boldM1, blocks.M1, atol=1e-9)
        # The partner M1^{-T} M2 is boldM1^{-1}, so the spectra are
        # reciprocal multisets.
        partner = partner_composite(blocks)
        ev1 = np.sort_complex(np.linalg.eigvals(blocks.boldM1))
        ev2 = np.sort_complex(1.0 / np.linalg.eigvals(partner))
        assert np.allclose(ev1, ev2, atol=1e-6 * max(1.0, np.abs(ev1).max()))


    @pytest.mark.parametrize("games", PARTNER_GAMES)
    def test_partner_composite_is_the_inverse(self, games):
        # M1 and M2 are symmetric, so M1^{-T} M2 = (M2^{-1} M1)^{-1}: player
        # 2 reads its composite off boldM1. Largest entry of boldM1 P - I
        # measured: 6.8e-13, at 200x240 s1.
        for game in games():
            blocks = assemble_blocks(game)
            product = blocks.boldM1 @ partner_composite(blocks)
            assert np.abs(product - np.eye(game.dims.d)).max() <= 1e-11


class TestRiccatiResidual:
    def test_zero_at_known_scalar_fixed_pair(self, warmup_game):
        # Hand check: L = -2 + sqrt(3) solves L(1 + 0.25 L) + 0.25 = 0.
        r1, r2 = riccati_residual(warmup_game, [[WARM_L]], [[WARM_L]])
        assert abs(r1[0, 0]) < 1e-14
        assert abs(r2[0, 0]) < 1e-14

    def test_shapes(self, bench_game):
        r1, r2 = riccati_residual(bench_game, np.zeros((3, 2)), np.zeros((2, 3)))
        assert r1.shape == (3, 2)
        assert r2.shape == (2, 3)

    def test_zero_conjectures_residual_is_b(self, bench_game):
        r1, r2 = riccati_residual(bench_game, np.zeros((3, 2)), np.zeros((2, 3)))
        assert np.allclose(r1, bench_game.p1.B)
        assert np.allclose(r2, bench_game.p2.B)

    def test_norms_are_relative_to_a(self, bench_game):
        r1n, r2n = riccati_residual_norms(
            bench_game, np.zeros((3, 2)), np.zeros((2, 3))
        )
        assert r1n == pytest.approx(
            np.linalg.norm(bench_game.p1.B) / np.linalg.norm(bench_game.p1.A)
        )
        assert r2n == pytest.approx(
            np.linalg.norm(bench_game.p2.B) / np.linalg.norm(bench_game.p2.A)
        )


    def test_norms_are_scale_free_past_an_overflowing_a(self, bench_game):
        # ||A_i||_F^2 overflows at this scale, and the residuals' squares do
        # not: the relative residual read 0.0 for any pair, and a cross run
        # from a pair off the fixed point converged at step 1.
        sol = equilibrium.solve_ccve(bench_game)
        L1 = sol.L1 + 1e-3
        big = QuadraticGame(bench_game.dims, *(
            core.PlayerCost(*(1e155 * m for m in p)) for p in (bench_game.p1, bench_game.p2)))
        want = riccati_residual_norms(bench_game, L1, sol.L2)
        assert riccati_residual_norms(big, L1, sol.L2) == pytest.approx(want, rel=1e-12)
        trace = lft.iterate(big, lft.IterationConfig(init=(L1, sol.ell1, sol.L2, sol.ell2)))
        assert trace.status == "converged" and trace.status_iter > 1

    @pytest.mark.parametrize("scale", [1e165, 1e170, 1e200])
    def test_a_solve_past_overflowing_residual_squares(self, bench_game, scale):
        # The residuals of a fixed pair square past the largest double from
        # about 1e170. Squared unscaled, they read inf, and the auto solve
        # raised NoStableSelection from NotAFixedPoint "(L1, L2) residuals
        # (4.740e-17, inf)".
        sol = equilibrium.solve_ccve(bench_game)
        big = scaled(bench_game, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big_sol = equilibrium.solve_ccve(big)
            norms = riccati_residual_norms(big, sol.L1, sol.L2)
        assert np.abs(big_sol.L1 - sol.L1).max() <= 1e-14 * np.abs(sol.L1).max()
        assert max(big_sol.stability.residuals + norms) <= 1e-15

    def test_a_run_records_finite_residuals_past_overflowing_squares(self, bench_game):
        # From the Nash init R1 = B1, whose square overflowed: every record
        # of the run read an inf residual.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = lft.iterate(scaled(bench_game, 1e170),
                                lft.IterationConfig(max_iters=30, tol=1e-30))
        assert len(trace.steps) == 31
        assert all(np.isfinite([st.res1, st.res2]).all() for st in trace.steps)
        assert max(trace.final.res1, trace.final.res2) <= 1e-11


def scaled(game, scale):
    """``game`` with every cost block multiplied by ``scale``: the same
    equilibrium conjectures and actions."""
    return QuadraticGame(game.dims, *(core.PlayerCost(*(scale * m for m in p))
                                      for p in (game.p1, game.p2)))


class TestDims:
    @pytest.mark.parametrize("d1", [2.5, True, "2", None])
    def test_rejects_a_dimension_that_is_no_integer(self, d1):
        # 2.5 and True constructed.
        with pytest.raises(DimensionMismatch, match="dimensions must be integers"):
            core.Dims(d1, 1)
        with pytest.raises(DimensionMismatch, match="dimensions must be integers"):
            core.Dims(1, d1)

    def test_numpy_dimensions_are_stored_as_ints(self, tmp_path):
        # A game built with numpy dimensions failed to save: json cannot
        # write a numpy integer.
        dims = core.Dims(np.int64(2), np.int32(3))
        assert (type(dims.d1), type(dims.d2)) == (int, int)
        game = builders.random_game(np.int64(2), np.int64(3), recipe="uniform")
        save_game(game, tmp_path / "game.json")
        assert game_to_dict(load_game(tmp_path / "game.json")) == game_to_dict(game)


class TestRecords:
    """The package's records: NamedTuples, but CcveSolution, a frozen dataclass."""

    @staticmethod
    def records():
        """One record of each class, by its name."""
        game = builders.example1_game()
        blocks = assemble_blocks(game)
        sol = equilibrium.solve_ccve(game)
        found = equilibrium.enumerate_fixed_points(game)
        mobius = builders.mobius_fixed_points(scalar_game(q1=1.0, r1=0.25, s1=0.0))
        records = [
            game.dims, game.p1, game, blocks, spectral.LargestMagnitude,
            spectral.eig(blocks.boldM1),
            spectral.invariant_subspace(blocks.boldM1, 2, spectral.LargestMagnitude),
            sol.stability, sol.second_order, lft.IterationConfig(),
            lft.iterate(game, lft.IterationConfig(max_iters=2)), found.candidates[0],
            found, random_lq_spec(np.random.default_rng(0)), builders.ScalarSpec(1, 0.25, 0),
            mobius.records[0], mobius, sol,
        ]
        return {type(r).__name__: r for r in records}

    def test_every_record_refuses_attribute_assignment(self):
        records = self.records()
        assert sorted(records) == sorted(
            "Dims PlayerCost QuadraticGame CompositeBlocks Selection Spectrum "
            "InvariantSubspace StabilityReport SecondOrderReport IterationConfig "
            "IterationTrace FixedPointCandidate EnumerationResult LqSpec ScalarSpec "
            "MobiusFixedPoint MobiusResult CcveSolution".split())
        for name, record in records.items():
            field = (record._fields if name != "CcveSolution" else ("L1",))[0]
            for attr in (field, "planted"):
                with pytest.raises(AttributeError):
                    setattr(record, attr, None)
                    pytest.fail(f"{name}.{attr} was assigned")

    def test_checked_records_convert_their_fields(self):
        assert type(core.Dims(np.int64(2), 3).d1) is int
        assert str(spectral.Indices([np.int64(0), 2])) == "indices[0, 2]"
        assert builders.ScalarSpec(1, 0.25, 0, r2=0.5) == (1, 0.25, 0, 0.0, 0.0,
                                                           1, 0.5, 0, 0.0, 0.0)

    def test_checked_records_check_a_replace(self):
        # NamedTuple's own _replace builds with tuple.__new__, past __new__'s checks.
        assert type(core.Dims(2, 3)._replace(d1=np.int64(4)).d1) is int
        with pytest.raises(DimensionMismatch, match="dimensions must be >= 1"):
            core.Dims(2, 3)._replace(d1=0)
        with pytest.raises(EigFailure, match="unknown selection kind 'bogus'"):
            spectral.LargestMagnitude._replace(kind="bogus")
        with pytest.raises(ValueError, match="tol must be below 1"):
            lft.IterationConfig()._replace(tol=2.0)
        assert builders.ScalarSpec(1, 0.25, 0)._replace(q1=2, q2=None).q2 == 2

    def test_a_solution_is_replaced_as_a_dataclass(self):
        # perfbench/smoke.py builds altered solutions this way.
        sol = equilibrium.solve_ccve(builders.example1_game())
        moved = dataclasses.replace(sol, L1=sol.L1 + 1e-6)
        assert np.array_equal(moved.L1, sol.L1 + 1e-6) and moved.stability is sol.stability


class TestPlayerIndex:
    """Every call that checks a slope refuses a player index other than the
    int 1 or 2, as QuadraticGame.player and eval_cost do, on a square game,
    where the shape check cannot tell the players apart. Before, the slope
    check read any index but 1 as player 2 and the composite step any but 2
    as player 1, and composite_step and perturbation_spectrum checked none."""

    GAME = builders.random_game(3, 3, recipe="uniform", seed=0)

    def calls(self):
        g, blocks, L = self.GAME, assemble_blocks(self.GAME), np.zeros((3, 3))
        x = np.ones(3)
        return {
            "_checked_L": lambda i: core._checked_L(g.dims, i, L),
            "best_response": lambda i: lft.best_response(g, i, L, x),
            "lft_cross": lambda i: lft.lft_cross(g, i, L),
            "offset_cross": lambda i: lft.offset_cross(g, i, L),
            "composite_step": lambda i: lft.composite_step(blocks, i, L),
            "perturbation_spectrum": lambda i: stability.perturbation_spectrum(blocks, i, L),
        }

    @pytest.mark.parametrize("i", NOT_PLAYER_INDICES)
    def test_only_1_or_2_is_a_player(self, i):
        msg = re.escape(f"player index must be 1 or 2, got {i!r}")
        for name, call in self.calls().items():
            with pytest.raises(DimensionMismatch, match=msg):
                call(i)
                pytest.fail(f"{name} accepted player index {i!r}")

    def test_numpy_integers_are_player_indices(self):
        for call in self.calls().values():
            for i in (1, 2):
                call(np.int64(i))
        assert self.GAME.player(np.int64(2)) is self.GAME.p2


class TestGameJson:
    def test_round_trip(self, tmp_path, bench_game):
        path = tmp_path / "game.json"
        save_game(bench_game, path)
        loaded = load_game(path)
        for i in (1, 2):
            for name in ("A", "B", "D", "a", "b"):
                assert np.array_equal(
                    getattr(loaded.player(i), name), getattr(bench_game.player(i), name)
                )

    def test_unknown_keys_rejected(self, bench_game):
        data = game_to_dict(bench_game)
        data["extra"] = 1
        with pytest.raises(DimensionMismatch, match="unknown game keys"):
            game_from_dict(data)

    def test_unknown_player_keys_rejected(self, bench_game):
        data = game_to_dict(bench_game)
        data["player1"]["C"] = [[0.0]]
        with pytest.raises(DimensionMismatch, match="unknown player1 keys"):
            game_from_dict(data)

    def test_missing_keys_rejected(self, bench_game):
        data = game_to_dict(bench_game)
        del data["player2"]
        with pytest.raises(DimensionMismatch, match="missing game keys"):
            game_from_dict(data)

    def test_missing_player_keys_rejected(self, bench_game):
        data = game_to_dict(bench_game)
        del data["player2"]["b"]
        with pytest.raises(DimensionMismatch, match=r"missing player2 keys: \['b'\]"):
            game_from_dict(data)

    @pytest.mark.parametrize("key", ["player1", "player2"])
    def test_player_not_an_object_rejected(self, bench_game, key):
        data = game_to_dict(bench_game)
        data[key] = [[1.0]]
        with pytest.raises(DimensionMismatch, match=f"{key} must be an object"):
            game_from_dict(data)

    @pytest.mark.parametrize("data", [[], "game", 1.0, None])
    def test_top_level_not_an_object_rejected(self, data):
        with pytest.raises(DimensionMismatch, match="game JSON must be an object"):
            game_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("d1", 2.9), ("d1", "2"), ("d1", True), ("d1", 2.0), ("d2", 3.0), ("d2", None),
    ])
    def test_dimension_not_a_json_integer_rejected(self, bench_game, key, value):
        data = game_to_dict(bench_game)
        data[key] = value
        with pytest.raises(DimensionMismatch, match=f"{key} must be a JSON integer"):
            game_from_dict(data)

    def test_file_is_strict_json(self, tmp_path, bench_game):
        path = tmp_path / "game.json"
        save_game(bench_game, path)
        data = json.loads(path.read_text())
        assert set(data) == {"d1", "d2", "player1", "player2"}
        assert set(data["player1"]) == {"A", "B", "D", "a", "b"}


class TestLapackLoader:
    """ccve.core loads scipy.linalg._flapack itself, without the scipy package,
    each ccve command loads only the modules it runs, and none of them builds
    a typing.ForwardRef."""

    SRC = Path(core.__file__).resolve().parent

    def printed(self, code):
        """The JSON value of the last line a fresh interpreter prints once it
        ran ``code`` with the package on its path."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(self.SRC.parent), os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        return json.loads(out.splitlines()[-1])

    def loaded(self, code):
        """The modules a fresh interpreter has run once it ran ``code``: those in
        sys.modules but the ones the package entered there and nothing has used
        yet (each a LazyLoader's _LazyModule)."""
        return self.printed(code + (
            "\nimport json, sys, importlib.util; print(json.dumps(sorted("
            "n for n, m in sys.modules.items() "
            "if not isinstance(m, importlib.util._LazyModule))))"))

    def ours(self, code):
        """The ccve and scipy modules of self.loaded(code), and dataclasses if it
        is one: the package defines one dataclass, equilibrium.CcveSolution."""
        return [m for m in self.loaded(code)
                if m.split(".")[0] in ("ccve", "scipy", "dataclasses")]

    def test_cli_import_loads_neither_scipy_linalg_nor_numpy_extras(self):
        # Nor logging: the package writes no log, so the CLI does not load it.
        modules = self.loaded("import ccve.cli")
        assert [m for m in modules if m in ("scipy.linalg", "numpy.f2py", "numpy.testing",
                                            "logging", "scipy.linalg._flapack")] \
            == ["scipy.linalg._flapack"]

    def test_cli_import_loads_no_scipy_package_and_no_command_module(self):
        assert self.ours("import ccve.cli") == [
            "ccve", "ccve.cli", "ccve.core", "ccve.errors", "scipy.linalg._flapack"]

    def test_package_import_enters_every_module_and_runs_none(self):
        # As when the package imported them, sys.modules and the package hold
        # every module but cli, so a tool that patches the loaded modules (as
        # perfbench's tracer does after `import ccve.cli`) finds each one.
        modules = ["analysis", "builders", "core", "equilibrium", "errors", "lft",
                   "spectral", "stability"]
        code = ("import ccve, sys\n"
                f"names = [f'ccve.{{m}}' for m in {modules}]\n"
                "assert sorted(n for n in sys.modules if n.startswith('ccve.')) == names\n"
                f"assert all(getattr(ccve, m) is sys.modules[f'ccve.{{m}}'] for m in {modules})")
        assert self.ours(code) == ["ccve"]

    # Each command and the modules it loads, beyond ccve, ccve.cli, ccve.core,
    # ccve.errors and scipy.linalg._flapack. Only solve and enumerate, whose
    # equilibrium defines CcveSolution, load dataclasses.
    COMMAND_MODULES = [
        pytest.param(["solve", "--game", "{game}", "--out", "{dir}/s.json"],
                     {"ccve.analysis", "ccve.equilibrium", "ccve.spectral",
                      "ccve.stability", "dataclasses"}, id="solve"),
        pytest.param(["enumerate", "--game", "{game}", "--out", "{dir}/e.json"],
                     {"ccve.analysis", "ccve.equilibrium", "ccve.spectral",
                      "ccve.stability", "dataclasses"}, id="enumerate"),
        pytest.param(["iterate", "--game", "{game}", "--trace", "{dir}/t.csv"],
                     {"ccve.analysis", "ccve.lft"}, id="iterate"),
        pytest.param(["check", "--game", "{game}", "--solution", "{solution}"],
                     {"ccve.analysis", "ccve.stability"}, id="check"),
        pytest.param(["build", "random", "--d1", "2", "--d2", "3",
                      "--out", "{dir}/g.json"], {"ccve.builders"}, id="build-random"),
        pytest.param(["build", "scalar", "--q1", "1", "--r1", "0.25", "--s1", "0",
                      "--out", "{dir}/g.json"], {"ccve.builders"}, id="build-scalar"),
    ]

    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES)
    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path, argv,
                                                         modules):
        game, solution = tmp_path / "game.json", tmp_path / "solution.json"
        save_game(scalar_game(q1=1.0, r1=0.25, s1=0.0), game)
        assert cli.main(["solve", "--game", str(game), "--out", str(solution)]) \
            == cli.EXIT_OK
        argv = [a.format(game=game, solution=solution, dir=tmp_path) for a in argv]
        assert self.ours(f"from ccve.cli import main; assert main({argv!r}) == 0") \
            == sorted({"ccve", "ccve.cli", "ccve.core", "ccve.errors",
                       "scipy.linalg._flapack"} | modules)

    def test_every_called_kernel_is_scipys(self):
        called = {"dgees", "dgges"}  # spectral._form calls these by name
        for name in ("core.py", "spectral.py"):
            called |= set(re.findall(r"\blapack\.(\w+)", (self.SRC / name).read_text()))
        assert {"dgetrf", "dgecon", "dsyevr", "dtrsen", "dtgsen"} <= called
        assert spectral.lapack is core.lapack
        assert sys.modules["scipy.linalg._flapack"] is core.lapack
        for name in sorted(called):
            assert getattr(core.lapack, name) is getattr(sla.lapack, name), name

    def test_missing_extension_is_an_import_error(self, tmp_path, monkeypatch):
        # The loader finds scipy's directory by its module spec.
        monkeypatch.setattr(core, "find_spec", lambda name: SimpleNamespace(
            submodule_search_locations=[str(tmp_path)]))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            core._load_lapack()

    def test_no_command_or_module_builds_a_forward_ref(self, tmp_path):
        # No module postpones its annotations, so typing.NamedTuple builds each
        # record from types; postponed, it compiled a ForwardRef for each field
        # at each import: 45 for a solve, 92 once every module ran.
        game = tmp_path / "game.json"
        save_game(builders.example1_game(), game)
        argv = ["solve", "--game", str(game), "--out", str(tmp_path / "s.json")]
        code = f"""
import importlib.util, json, sys, typing
built = []
init = typing.ForwardRef.__init__
def counted(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
typing.ForwardRef.__init__ = counted
from ccve.cli import main
assert main({argv!r}) == 0
solve = len(built)
names = sorted(n for n in sys.modules if n.startswith("ccve."))
for name in names:  # reading a name runs a module the package only entered
    sys.modules[name].__doc__
assert not any(isinstance(sys.modules[n], importlib.util._LazyModule) for n in names)
print(json.dumps([solve, len(built), names]))
"""
        solve, every, names = self.printed(code)
        assert len(names) == 9
        assert (solve, every) == (0, 0)


# The names the package exports, by the module that defines each: the names its
# __init__ imported before it resolved them on first read.
EXPORTS = [(module, name) for module, names in (
    ("core", "CompositeBlocks Dims PlayerCost QuadraticGame assemble_blocks "
             "eval_cost load_game riccati_residual riccati_residual_norms save_game "
             "validate_game"),
    ("equilibrium", "CcveSolution enumerate_fixed_points solve_ccve "
                    "solve_via_generalized"),
    ("lft", "IterationConfig IterationTrace best_response composite_step iterate "
            "lft_cross offset_cross predict"),
    ("spectral", "Indices LargestMagnitude SmallestMagnitude"),
) for name in names.split()]


class TestPackageSurface:
    """The lazy package exports the same objects as when it imported them."""

    @pytest.mark.parametrize("module, name", EXPORTS, ids=[n for _, n in EXPORTS])
    def test_name_is_its_modules_object(self, module, name):
        obj = getattr(importlib.import_module(f"ccve.{module}"), name)
        assert getattr(ccve, name) is obj
        namespace = {}
        exec(f"from ccve import {name}", namespace)
        assert namespace[name] is obj

    def test_dir_lists_every_name_and_version(self):
        assert len(EXPORTS) == 26
        assert {name for _, name in EXPORTS} | {"__version__"} <= set(dir(ccve))
        assert ccve.__version__ == cli.__version__ == "0.1.0"

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'ccve' has no attribute 'solve'"):
            ccve.solve  # noqa: B018
        with pytest.raises(ImportError):
            exec("from ccve import solve", {})
