"""Game constructors: LQ unrolling, scalar games, seeded recipes, Moebius."""

import json

import numpy as np
import pytest
import scipy.linalg as sla

from ccve import builders, equilibrium, stability
from ccve.builders import (
    LqSpec,
    ScalarSpec,
    build_lq_game,
    build_scalar_game,
    example1_game,
    mobius_fixed_points,
    random_game,
)
from ccve.core import QuadraticGame, eval_cost, game_to_dict, validate_game
from ccve.errors import ComplexFixedPoints, DegenerateScalar, DimensionMismatch

from conftest import EPS, MARGINAL, SQ3, WARM_L, WARM_XI, random_lq_spec, rollout_cost


class TestLqSpec:
    def test_requires_pd_r(self):
        with pytest.raises(DimensionMismatch, match="positive definite"):
            LqSpec.create(
                F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
                Q1=[[0.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]],
                R1=[[0.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
                z0=[0.0], T=2,
            )

    def test_requires_psd_q(self):
        with pytest.raises(DimensionMismatch, match="semidefinite"):
            LqSpec.create(
                F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
                Q1=[[-1.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]],
                R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
                z0=[0.0], T=2,
            )

    @pytest.mark.parametrize("name", ["Q1", "Q2f"])
    def test_requires_symmetric_q(self, name):
        # Positive semidefinite in its symmetric part, but not symmetric.
        entries = dict(F=np.eye(2), G1=np.ones((2, 1)), G2=np.ones((2, 1)),
                       Q1=np.eye(2), Q2=np.eye(2), Q1f=np.eye(2), Q2f=np.eye(2),
                       R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
                       z0=[1.0, 0.0], T=2)
        assert LqSpec.create(**entries).n == 2
        entries[name] = [[1.0, 0.5], [0.0, 1.0]]
        with pytest.raises(DimensionMismatch, match=f"{name} must be symmetric"):
            LqSpec.create(**entries)

    def test_rejects_an_unknown_entry(self):
        with pytest.raises(DimensionMismatch, match=r"unknown LqSpec keys: \['Q3'\]"):
            LqSpec.create(
                F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
                Q1=[[0.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]], Q3=[[1.0]],
                R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
                z0=[0.0], T=2,
            )

    def test_requires_positive_horizon(self):
        with pytest.raises(DimensionMismatch, match="horizon"):
            LqSpec.create(
                F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
                Q1=[[0.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]],
                R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
                z0=[0.0], T=0,
            )

    @pytest.mark.parametrize("T", [2.5, True, "3", None])
    def test_requires_an_integer_horizon(self, T):
        # 2.5 was read as 2, True as 1 and "3" as 3.
        spec = random_lq_spec(np.random.default_rng(0))
        entries = {key: getattr(spec, key) for key in builders._LQ_SHAPES}
        with pytest.raises(DimensionMismatch, match=f"T must be a JSON integer, got {T!r}"):
            LqSpec.create(T=T, **entries)
        assert type(LqSpec.create(T=np.int64(3), **entries).T) is int

    def test_refuses_a_horizon_beyond_the_unroll_cap(self, monkeypatch):
        # n = m1 = m2 = 1: the input map is (T + 1) x T. T = 3161 fits in
        # LQ_UNROLL_MAX_ENTRIES = 10**7 entries, T = 3162 does not; nothing
        # is unrolled either way.
        monkeypatch.setattr(builders, "_unroll_input_map", None)
        spec = dict(F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
                    Q1=[[0.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]],
                    R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]], z0=[0.0])
        assert 3161 * 3162 <= builders.LQ_UNROLL_MAX_ENTRIES < 3162 * 3163
        assert LqSpec.create(T=3161, **spec).T == 3161
        for T in (3162, 10**9):
            with pytest.raises(DimensionMismatch, match=f"horizon T = {T} unrolls"):
                LqSpec.create(T=T, **spec)


def one_product_per_block_unroll(spec):
    """The LQ unroll with one product per block, the oracle of
    TestBuildLqGame: each block of an input map is matrix_power(F, j) @ G,
    the state map stacks matrix_power(F, t), the block weights are
    scipy.linalg.block_diag's, and each of A, B, D, a, b is one product
    through the player's stage weight."""
    T, F = spec.T, spec.F

    def input_map(G):
        n, m = G.shape
        W = np.zeros((n * (T + 1), m * T))
        for t in range(1, T + 1):
            for k in range(t):
                block = np.linalg.matrix_power(F, t - 1 - k) @ G
                W[t * n:(t + 1) * n, k * m:(k + 1) * m] = block
        return W

    W1, W2 = input_map(spec.G1), input_map(spec.G2)
    z = np.vstack([np.linalg.matrix_power(F, t) for t in range(T + 1)]) @ spec.z0

    def player(W, W_opp, Q, Qf, R, R_cross):
        bQ = sla.block_diag(*[Q] * T, Qf)
        bR, bR_cross = sla.block_diag(*[R] * T), sla.block_diag(*[R_cross] * T)
        return (bR + W.T @ bQ @ W, (bR_cross + W.T @ bQ @ W_opp).T,
                W_opp.T @ bQ @ W_opp, W.T @ bQ @ z, W_opp.T @ bQ @ z)

    return QuadraticGame.create(
        spec.m1 * T, spec.m2 * T,
        player(W1, W2, spec.Q1, spec.Q1f, spec.R1, spec.R12),
        player(W2, W1, spec.Q2, spec.Q2f, spec.R2, spec.R21),
    )


# (n, m1, m2, T) of the small-games LQ unrolls.
SMALL_GAMES_LQ_SHAPES = [(1, 1, 1, 2), (1, 1, 1, 3), (2, 1, 1, 2),
                         (2, 1, 2, 2), (2, 2, 1, 3), (2, 2, 2, 2)]
# The unroll forms F^t as F^{t-1} @ F, which is how matrix_power forms it
# for t <= 3 only; beyond, its blocks may move in the last bits. On the
# T = 4..8 draws below the largest move is 6.2 eps relative to the block's
# largest entry.
UNROLL_TOL = 32 * EPS


class TestBuildLqGame:
    @pytest.mark.parametrize("n, m1, m2, T", SMALL_GAMES_LQ_SHAPES)
    def test_small_games_shapes_are_the_oracles_bit_for_bit(self, n, m1, m2, T):
        for seed in range(4):
            spec = random_lq_spec(np.random.default_rng([seed, n, m1, m2, T]),
                                  shape=(n, m1, m2, T))
            self.assert_bit_for_bit(spec)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_specs_up_to_t3_are_the_oracles_bit_for_bit(self, seed):
        spec = random_lq_spec(np.random.default_rng(seed), t_max=3)
        self.assert_bit_for_bit(spec)

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_signed_zeros_are_the_oracles(self, T):
        # Zero state costs and a -0.0 cross weight: the entries of A and B
        # off the weights' blocks are sums of zeros, whose signs the JSON
        # compares too.
        spec = random_lq_spec(np.random.default_rng(T), shape=(2, 2, 1, T))
        zero = np.zeros((2, 2))
        self.assert_bit_for_bit(spec._replace(Q1=zero, Q1f=zero, Q2=zero,
                                              R12=-0.0 * spec.R12, R21=-spec.R21))

    @staticmethod
    def assert_bit_for_bit(spec):
        ours = json.dumps(game_to_dict(build_lq_game(spec)))
        assert ours == json.dumps(game_to_dict(one_product_per_block_unroll(spec)))

    @pytest.mark.parametrize("T", range(4, 9))
    def test_longer_horizons_agree_with_the_oracle(self, T):
        for seed in range(10):
            spec = random_lq_spec(np.random.default_rng([T, seed]), shape=(
                1 + seed % 4, 1 + seed % 2, 2 - seed % 2, T))
            ours, oracle = build_lq_game(spec), one_product_per_block_unroll(spec)
            for i in (1, 2):
                for key in ("A", "B", "D", "a", "b"):
                    a, b = getattr(ours.player(i), key), getattr(oracle.player(i), key)
                    scale = np.max(np.abs(b))
                    assert np.max(np.abs(a - b)) <= UNROLL_TOL * scale, (seed, i, key)

    def test_hand_unroll_terminal_cost_only(self):
        # n = 1, F = G = 1, Q = 0, Qf = 1, R = 1, z0 = 0, T = 2: the terminal
        # state is u(0) + u(1), so A_i = I + ones and B_i = D_i = ones.
        spec = LqSpec.create(
            F=[[1.0]], G1=[[1.0]], G2=[[1.0]],
            Q1=[[0.0]], Q2=[[0.0]], Q1f=[[1.0]], Q2f=[[1.0]],
            R1=[[1.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
            z0=[0.0], T=2,
        )
        g = build_lq_game(spec)
        assert g.dims.d1 == 2 and g.dims.d2 == 2
        ones = np.ones((2, 2))
        assert np.allclose(g.p1.A, np.eye(2) + ones)
        assert np.allclose(g.p1.B, ones)
        assert np.allclose(g.p1.D, ones)
        assert np.allclose(g.p1.a, 0.0)

    def test_hand_unroll_initial_state(self):
        # n = 1, F = 2, T = 1, z0 = 1: state after one step is 2 + u1 + u2.
        # With Q = q at t=0 (no control influence) and Qf = f:
        # A = r + f, a = 2 f (gradient of 1/2 f (2 + u)^2 at u = 0).
        spec = LqSpec.create(
            F=[[2.0]], G1=[[1.0]], G2=[[1.0]],
            Q1=[[3.0]], Q2=[[0.0]], Q1f=[[5.0]], Q2f=[[1.0]],
            R1=[[7.0]], R2=[[1.0]], R12=[[0.0]], R21=[[0.0]],
            z0=[1.0], T=1,
        )
        g = build_lq_game(spec)
        assert g.p1.A[0, 0] == pytest.approx(7.0 + 5.0)
        assert g.p1.a[0] == pytest.approx(2.0 * 5.0)
        assert g.p1.b[0] == pytest.approx(2.0 * 5.0)

    def test_costs_match_rollout_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            spec = random_lq_spec(rng)
            g = build_lq_game(spec)
            for _ in range(3):
                u1 = rng.standard_normal(g.dims.d1)
                u2 = rng.standard_normal(g.dims.d2)
                for i in (1, 2):
                    static = eval_cost(g, i, u1, u2)
                    rolled = rollout_cost(spec, i, u1, u2)
                    assert static == pytest.approx(rolled, rel=1e-12, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        spec = random_lq_spec(rng)
        g = build_lq_game(spec)
        u1 = rng.standard_normal(g.dims.d1)
        u2 = rng.standard_normal(g.dims.d2)
        grad = g.p1.A @ u1 + g.p1.B.T @ u2 + g.p1.a
        h = 1e-6
        for j in range(g.dims.d1):
            e = np.zeros(g.dims.d1)
            e[j] = h
            fd = (rollout_cost(spec, 1, u1 + e, u2)
                  - rollout_cost(spec, 1, u1 - e, u2)) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-6)


class TestScalarGame:
    def test_builds_expected_blocks(self):
        g = build_scalar_game(ScalarSpec(q1=2.0, r1=0.5, s1=1.0, w1=3.0, v1=4.0))
        assert g.p1.A[0, 0] == 2.0
        assert g.p1.B[0, 0] == 0.5
        assert g.p1.D[0, 0] == 1.0
        assert g.p1.a[0] == 3.0
        assert g.p1.b[0] == 4.0

    def test_one_player_spec_mirrors_quadratics(self):
        spec = ScalarSpec(q1=2.0, r1=0.5, s1=1.0)
        assert spec.q2 == 2.0 and spec.r2 == 0.5 and spec.s2 == 1.0
        # Linear terms stay independent (default zero).
        assert spec.w2 == 0.0 and spec.v2 == 0.0

    def test_degenerate_determinant_rejected(self):
        with pytest.raises(DegenerateScalar):
            build_scalar_game(ScalarSpec(q1=1.0, r1=1.0, s1=1.0))

    @pytest.mark.parametrize("fields, name, value", [
        (dict(q1="a", r1=0.1, s1=0.0), "q1", "a"),
        (dict(q1=1.0, r1=None, s1=0.0), "r1", None),
        (dict(q1=10**400, r1=0.1, s1=0.0), "q1", 10**400),
        (dict(q1=True, r1=0.1, s1=0.0), "q1", True),
        (dict(q1=1.0, r1=0.1, s1=0.0, s2=[1.0]), "s2", [1.0]),
        (dict(q1=1.0, r1=0.1, s1=0.0, v2=np.True_), "v2", np.True_),
    ], ids=["string", "none", "int-beyond-float", "bool", "list", "numpy-bool"])
    def test_fields_must_be_real_numbers(self, fields, name, value):
        # Each raised a raw TypeError or OverflowError from the degeneracy test,
        # or named the block ("A1 must be an array of numbers"), not the field.
        with pytest.raises(ValueError) as info:
            build_scalar_game(ScalarSpec(**fields))
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    def test_player_two_defaults_are_checked_as_filled(self):
        # q2, r2 and s2 default to player 1's, which are checked once filled in.
        with pytest.raises(ValueError, match="q1 must be a real number, got 'a'"):
            ScalarSpec(q1="a", r1=0.1, s1=0.0, q2=1.0)
        spec = ScalarSpec(np.float32(0.5), 1, np.int64(2))
        assert spec == (0.5, 1.0, 2.0, 0.0, 0.0, 0.5, 1.0, 2.0, 0.0, 0.0)
        assert all(type(v) is float for v in spec)


class TestRandomGame:
    def test_deterministic_per_seed(self):
        a = random_game(3, 4, recipe="paper7ex2", seed=7)
        b = random_game(3, 4, recipe="paper7ex2", seed=7)
        c = random_game(3, 4, recipe="paper7ex2", seed=8)
        assert np.array_equal(a.p1.B, b.p1.B)
        assert np.array_equal(a.p2.B, b.p2.B)
        assert not np.array_equal(a.p1.B, c.p1.B)

    def test_bench_recipe_template(self):
        g = random_game(3, 4, recipe="paper7ex2", seed=0)
        assert np.allclose(g.p1.A, 13.0 * np.eye(3))
        assert np.allclose(g.p1.D, -0.2 * np.eye(4))
        assert np.allclose(g.p2.A, 13.0 * np.eye(4))
        assert np.allclose(g.p2.D, -0.1 * np.eye(3))
        assert np.all(np.abs(g.p1.B) < 1.0)
        assert np.allclose(g.p1.a, 0.0)
        assert np.allclose(g.p2.a, 1.0)
        assert np.allclose(g.p2.b, 1.0)
        validate_game(g)

    def test_uniform_recipe_respects_bounds(self):
        g = random_game(4, 4, recipe="uniform", seed=3, lo=-2.0, hi=0.5)
        assert np.all(g.p1.B >= -2.0) and np.all(g.p1.B <= 0.5)
        assert g.p1.A[0, 0] == pytest.approx(1.0 + 2.0 * 2.0 * 4)
        validate_game(g)

    def test_fixed_benchmark_recipe_checks_dims(self):
        with pytest.raises(DimensionMismatch):
            random_game(3, 3, recipe="paper7ex1")
        g = random_game(2, 3, recipe="paper7ex1")
        ref = example1_game()
        assert np.array_equal(g.p1.B, ref.p1.B)

    def test_unknown_recipe_rejected(self):
        with pytest.raises(ValueError):
            random_game(2, 2, recipe="gauss")

    @pytest.mark.parametrize("recipe, d1, d2", [("paper7ex1", 2, 3), ("paper7ex2", 3, 4)])
    def test_paper_recipes_reject_bounds(self, recipe, d1, d2):
        # The paper recipes draw B on (-1, 1); other bounds are an error,
        # not silently ignored.
        for lo, hi in ((-5.0, 5.0), (-1.0, 0.5)):
            with pytest.raises(ValueError, match="lo, hi"):
                random_game(d1, d2, recipe=recipe, lo=lo, hi=hi)
        explicit = random_game(d1, d2, recipe=recipe, lo=-1.0, hi=1.0)
        default = random_game(d1, d2, recipe=recipe)
        assert np.array_equal(explicit.p1.B, default.p1.B)
        assert np.array_equal(explicit.p2.B, default.p2.B)

    @pytest.mark.parametrize("lo, hi", [
        (np.nan, 1.0), (-1.0, np.inf), (-1e308, 1e308),
        pytest.param(-10**308, 10**308, id="ints-of-float-range"),
    ])
    def test_uniform_rejects_bounds_without_a_finite_range(self, lo, hi):
        # numpy.random's uniform raises OverflowError for each of them; the
        # range of two ints beyond int64 was numpy's TypeError from isfinite.
        with pytest.raises(ValueError, match="finite hi - lo"):
            random_game(2, 3, recipe="uniform", lo=lo, hi=hi)

    @pytest.mark.parametrize("recipe, lo, hi", [
        ("uniform", "a", 1.0), ("uniform", -1.0, None), ("paper7ex2", "a", 1.0),
        ("paper7ex1", -1.0, [1.0]), ("uniform", True, 1.0), ("paper7ex2", -1.0, np.True_),
        pytest.param("uniform", 10**400, 10**401, id="uniform-ints-beyond-float"),
        pytest.param("paper7ex2", 10**400, 1.0, id="paper7ex2-int-beyond-float"),
    ])
    def test_bounds_must_be_real_numbers(self, recipe, lo, hi):
        # numpy's draw would raise a TypeError, and the paper recipes' refusal
        # could not format them; a bool is refused as core._as_array refuses it,
        # and an int that float() cannot convert as no real number.
        with pytest.raises(ValueError) as info:
            random_game(2, 3, recipe=recipe, lo=lo, hi=hi)
        assert str(info.value) == \
            f"bounds lo and hi must be real numbers; got lo={lo!r}, hi={hi!r}"

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (0, -1), (np.float32(0.5), np.int64(0))])
    def test_uniform_bounds_must_not_be_reversed(self, lo, hi):
        # numpy.random's uniform raises "high - low < 0" for each of them.
        with pytest.raises(ValueError) as info:
            random_game(2, 3, recipe="uniform", lo=lo, hi=hi)
        assert str(info.value) == f"uniform bounds need lo <= hi; got lo={lo!r}, hi={hi!r}"

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.5), (np.float32(-2), np.int64(1)), (-1, 2)])
    def test_uniform_builds_from_equal_and_numpy_bounds(self, lo, hi):
        g = random_game(2, 3, recipe="uniform", seed=1, lo=lo, hi=hi)
        assert np.all((g.p1.B >= lo) & (g.p1.B <= hi))
        assert np.all((g.p2.B >= lo) & (g.p2.B <= hi))
        validate_game(g)

    def test_uniform_builds_from_int_bounds_beyond_int64(self):
        # Their range hi - lo, an int beyond int64, was numpy's TypeError from isfinite.
        g = random_game(2, 3, recipe="uniform", seed=1, lo=-2**70, hi=2**70)
        assert np.all(np.abs(g.p1.B) <= 2.0**70) and np.all(np.abs(g.p2.B) <= 2.0**70)

    @pytest.mark.parametrize("d1, d2, message", [
        (2.5, 3, "dimensions must be integers"), ("2", 3, "dimensions must be integers"),
        (True, 3, "dimensions must be integers"), (-1, 3, "dimensions must be >= 1"),
        (2, 0, "dimensions must be >= 1"),
    ])
    def test_dims_are_checked_before_the_draw(self, d1, d2, message):
        with pytest.raises(DimensionMismatch, match=message):
            random_game(d1, d2, recipe="uniform")

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw from OS entropy, a game no seed reproduces.
        with pytest.raises(ValueError) as info:
            random_game(3, 4, seed=seed)
        assert str(info.value) == f"seed must be a non-negative integer, got {seed!r}"

    def test_numpy_integer_seed_is_its_int(self):
        assert np.array_equal(random_game(3, 4, seed=np.int64(7)).p1.B,
                              random_game(3, 4, seed=7).p1.B)


class TestExample1Game:
    def test_frozen_constants(self):
        g = example1_game()
        assert g.dims.d1 == 2 and g.dims.d2 == 3
        assert np.array_equal(g.p1.A, np.eye(2))
        assert np.array_equal(
            g.p1.B, [[-0.1, 0.2], [-0.5, -0.2], [-0.4, -0.4]]
        )
        assert np.array_equal(g.p1.D, -0.2 * np.eye(3))
        assert np.array_equal(g.p2.B, [[0.3, 0.2, 0.1], [0.0, 0.1, -0.2]])
        assert np.array_equal(g.p2.D, -0.1 * np.eye(2))
        assert np.array_equal(g.p2.a, np.ones(3))
        assert np.array_equal(g.p2.b, np.ones(2))
        validate_game(g)


class TestMobius:
    def test_warmup_closed_form(self, warmup_game):
        res = mobius_fixed_points(warmup_game)
        assert not res.infinite_root
        assert len(res.records) == 2
        stable, unstable = res.records
        assert stable.L == pytest.approx(WARM_L, abs=1e-14)
        assert stable.xi_magnitude == pytest.approx(WARM_XI, abs=1e-12)
        assert stable.classification == "stable"
        assert unstable.L == pytest.approx(-2.0 - SQ3, abs=1e-12)
        assert unstable.classification == "unstable"

    def test_sorted_by_multiplier(self, warmup_game):
        res = mobius_fixed_points(warmup_game)
        mags = [r.xi_magnitude for r in res.records]
        assert mags == sorted(mags)

    def test_linear_case_infinite_root(self):
        # boldM1 = [[0.5, 0], [0.5, 1]]: slope map v -> 1 + 2v with the finite
        # fixed point -1 (multiplier 2) and a second fixed point at infinity.
        g = build_scalar_game(ScalarSpec(q1=2.0, r1=1.0, s1=1.0,
                                         q2=1.0, r2=1.0, s2=3.0))
        res = mobius_fixed_points(g)
        assert res.infinite_root
        assert len(res.records) == 1
        assert res.records[0].L == pytest.approx(-1.0)
        assert res.records[0].xi_magnitude == pytest.approx(2.0)
        assert res.records[0].classification == "unstable"

    def test_identity_map_degenerate(self):
        # B = 0 with q1/s2 = s1/q2 makes the slope map the identity.
        g = build_scalar_game(ScalarSpec(q1=1.0, r1=0.0, s1=1.0))
        with pytest.raises(DegenerateScalar):
            mobius_fixed_points(g)

    def test_equal_magnitude_roots_are_marginal(self):
        # boldM1 = [[1, 0.5], [0.5, -1]]: the fixed slopes -2 +/- sqrt(5) both
        # have the multiplier xi = -1, so neither is stable nor unstable.
        res = mobius_fixed_points(build_scalar_game(MARGINAL))
        assert not res.infinite_root
        assert [r.classification for r in res.records] == ["marginal", "marginal"]
        assert sorted(r.L for r in res.records) == pytest.approx(
            [-2.0 - np.sqrt(5.0), -2.0 + np.sqrt(5.0)], abs=1e-14)
        for r in res.records:
            assert abs(r.xi_magnitude - 1.0) <= stability.MARGINAL_BAND

    def test_elliptic_rejected(self):
        g = build_scalar_game(ScalarSpec(q1=1.5, r1=0.6, s1=-1.5,
                                         q2=1.4, r2=1.8, s2=1.6))
        with pytest.raises(ComplexFixedPoints):
            mobius_fixed_points(g)

    def test_nonscalar_rejected(self, bench_game):
        with pytest.raises(DimensionMismatch):
            mobius_fixed_points(bench_game)

    def test_agrees_with_enumeration_and_solver(self, warmup_game):
        res = mobius_fixed_points(warmup_game)
        enum = equilibrium.enumerate_fixed_points(warmup_game)
        enum_slopes = sorted(c.solution.L1[0, 0] for c in enum.candidates)
        mob_slopes = sorted(r.L for r in res.records)
        assert np.allclose(enum_slopes, mob_slopes, atol=1e-12)
        sol = equilibrium.solve_ccve(warmup_game)
        stable = [r for r in res.records if r.classification == "stable"]
        assert len(stable) == 1
        assert sol.L1[0, 0] == pytest.approx(stable[0].L, abs=1e-12)
        assert sol.xi_max[0] == pytest.approx(stable[0].xi_magnitude, abs=1e-12)
