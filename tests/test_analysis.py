"""Second-order certification, Nash baseline, and social-cost analysis."""

import numpy as np
import pytest

from ccve import builders
from ccve.analysis import _effective_hessian, nash, second_order_check, social_optimum
from ccve.core import Conjecture, _checked_slope, eval_cost
from ccve.equilibrium import solve_ccve
from ccve.errors import DimensionMismatch, SingularNashSystem
from ccve.lft import best_response

from conftest import SQ3, WARM_L, random_dense_game, scalar_game


def effective_hessian(game, i, L):
    """Player i's effective Hessian at slope L, as the solve and the iteration form it."""
    return _effective_hessian(_checked_slope(game, i, L))


def social_cost(game, x1, x2):
    """The social cost f1 + f2 at the joint action."""
    return eval_cost(game, 1, x1, x2) + eval_cost(game, 2, x1, x2)


class TestEffectiveHessian:
    def test_warmup_hand_value(self, warmup_game):
        # S = q + 2 r L + s L^2 = 1 + 0.5 (-2 + sqrt(3)) = sqrt(3)/2.
        S = effective_hessian(warmup_game, 1, [[WARM_L]])
        assert S[0, 0] == pytest.approx(SQ3 / 2.0, abs=1e-14)

    def test_symmetric_output(self):
        rng = np.random.default_rng(6)
        g = random_dense_game(rng, 3, 2)
        S = effective_hessian(g, 1, rng.standard_normal((2, 3)))
        assert np.allclose(S, S.T)

    def test_matches_quadratic_restriction(self):
        # S is the Hessian of x -> f_i(x, L x + ell): finite differences of
        # the cost along coordinates must reproduce it.
        rng = np.random.default_rng(7)
        g = random_dense_game(rng, 2, 3)
        L = 0.4 * rng.standard_normal((3, 2))
        ell = rng.standard_normal(3)
        S = effective_hessian(g, 1, L)

        def phi(x):
            return eval_cost(g, 1, x, L @ x + ell)

        h = 1e-4
        x0 = rng.standard_normal(2)
        for j in range(2):
            for k in range(2):
                ej, ek = np.zeros(2), np.zeros(2)
                ej[j] = h
                ek[k] = h
                fd = (phi(x0 + ej + ek) - phi(x0 + ej - ek)
                      - phi(x0 - ej + ek) + phi(x0 - ej - ek)) / (4 * h * h)
                assert fd == pytest.approx(S[j, k], rel=1e-5, abs=1e-5)


class TestSecondOrderCheck:
    def test_warmup_passes(self, warmup_game):
        rep = second_order_check(warmup_game, [[WARM_L]], [[WARM_L]])
        assert rep.pass_
        assert rep.min_eig_1 == pytest.approx(SQ3 / 2.0, abs=1e-14)
        # M1 = [[1, 0.25], [0.25, 0]] is indefinite: the sufficient global
        # condition fails while the local certificate still passes.
        assert rep.m1_posdef is False

    def test_bench_passes_with_indefinite_m(self, bench_game):
        sol = solve_ccve(bench_game)
        rep = second_order_check(bench_game, sol.L1, sol.L2)
        assert rep.pass_
        assert rep.min_eig_1 > 0.5
        assert rep.min_eig_2 > 0.5
        assert rep.m1_posdef is False and rep.m2_posdef is False

    def test_posdef_m_reported(self):
        g = scalar_game(q1=1.0, r1=0.1, s1=1.0)
        rep = second_order_check(g, [[0.0]], [[0.0]])
        assert rep.m1_posdef and rep.m2_posdef

    def test_failure_detected(self):
        # q + 2 r L + s L^2 = 1 - 4 < 0 at L = 2 with r = 0, s = -1.
        g = scalar_game(q1=1.0, r1=0.0, s1=-1.0)
        rep = second_order_check(g, [[2.0]], [[2.0]])
        assert not rep.pass_
        assert rep.min_eig_1 == pytest.approx(-3.0)

    def test_shape_validation(self, bench_game):
        with pytest.raises(DimensionMismatch):
            second_order_check(bench_game, np.zeros((2, 3)), np.zeros((2, 3)))


class TestNash:
    def test_symmetric_scalar_hand_value(self):
        # [[1, 0.25], [0.25, 1]] x = -[1, 1]: x = -0.8 for both players.
        g = scalar_game(q1=1.0, r1=0.25, s1=0.0, w1=1.0, w2=1.0)
        x1, x2 = nash(g)
        assert x1[0] == pytest.approx(-0.8)
        assert x2[0] == pytest.approx(-0.8)

    def test_fixed_point_of_zero_conjecture_responses(self, bench_game):
        x1, x2 = nash(bench_game)
        dims = bench_game.dims
        c1 = Conjecture.create(1, np.zeros((dims.d2, dims.d1)), x2, dims)
        c2 = Conjecture.create(2, np.zeros((dims.d1, dims.d2)), x1, dims)
        assert np.allclose(best_response(bench_game, 1, c1), x1, atol=1e-12)
        assert np.allclose(best_response(bench_game, 2, c2), x2, atol=1e-12)

    def test_singular_system_rejected(self):
        g = scalar_game(q1=1.0, r1=1.0, s1=0.5)
        with pytest.raises(SingularNashSystem):
            nash(g)


class TestSocial:
    @pytest.mark.parametrize("game", [
        pytest.param(builders.example1_game(), id="2x3"),
        pytest.param(builders.random_game(50, 60, recipe="paper7ex2", seed=0),
                     id="paper7ex2-50x60-s0"),
    ])
    def test_both_costs_from_one_stacking(self, count_calls, game):
        # social_optimum stacks M1 and M2 once and takes both costs from one
        # product, bit for bit the two eval_cost calls.
        calls = count_calls("_stack")
        x1, x2, fs = social_optimum(game)
        assert calls["_stack"] == 2
        assert fs == eval_cost(game, 1, x1, x2) + eval_cost(game, 2, x1, x2)

    def test_symmetric_scalar_hand_value(self):
        # H = sym(M1 + M2) = [[1, 0.5], [0.5, 1]], g = [1.5, 1.5]:
        # optimum at (-1, -1) with social cost -1.5.
        g = scalar_game(q1=1.0, r1=0.25, s1=0.0, w1=1.0, v1=0.5,
                        w2=1.0, v2=0.5)
        x1, x2, fs = social_optimum(g)
        assert x1[0] == pytest.approx(-1.0)
        assert x2[0] == pytest.approx(-1.0)
        assert fs == pytest.approx(-1.5)

    def test_stationarity(self, bench_game):
        x1, x2, fs = social_optimum(bench_game)
        h = 1e-6
        z = np.concatenate([x1, x2])
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            zp, zm = z + e, z - e
            fp = social_cost(bench_game, zp[:2], zp[2:])
            fm = social_cost(bench_game, zm[:2], zm[2:])
            assert abs(fp - fm) / (2 * h) < 1e-6

    def test_not_certified_min_warning(self):
        g = scalar_game(q1=1.0, r1=2.0, s1=0.0)
        with pytest.warns(UserWarning, match="NotCertifiedMin"):
            social_optimum(g)

    def test_minimum_dominates_samples(self, bench_game):
        x1s, x2s, fs = social_optimum(bench_game)
        rng = np.random.default_rng(10)
        for _ in range(50):
            x1 = x1s + rng.standard_normal(2)
            x2 = x2s + rng.standard_normal(3)
            assert social_cost(bench_game, x1, x2) >= fs - 1e-12
