"""Metamorphic relation: the game treats its two players alike.

The swapped game swap(g) = (d2, d1, p2, p1) gives player 1's cost blocks to
player 2 and back. Every result of swap(g) is then the result of g with the
players swapped: the solve's slopes, offsets, actions and xi_max, the
Nash and social actions, each player's cost, and every step of both
iterations, with the same status and step count. Player 2's code path
differs from player 1's (it reads boldM1^{-1} through the blocks of boldM1,
and the certificate treats it first), so the relation ties the two players'
code to each other. The square games are where a player-2 layout or path
error keeps every shape.
"""

import warnings

import numpy as np
import pytest

from ccve import analysis, builders, equilibrium, lft
from ccve.core import Dims, QuadraticGame, eval_cost

from conftest import assert_close

# conftest.assert_close holds each field to 64 eps. The largest measured on
# these games: 22 eps for the solves (50x60 s0, QZ route), 8 eps for the
# social cost, 17 eps for the composite iteration's values and 28 eps for
# its costs and residuals (50x60 s0). A planted 1e-12 relative error, about
# 4500 eps, fails.

GAMES = {"2x3": builders.example1_game}
GAMES.update({
    f"uniform-{d}x{d}-s{s}":
        lambda d=d, s=s: builders.random_game(d, d, recipe="uniform", seed=s)
    for d in (1, 3, 4) for s in range(3)
})
GAMES.update({
    f"paper7ex2-{d1}x{d2}-s{s}":
        lambda d1=d1, d2=d2, s=s: builders.random_game(d1, d2, recipe="paper7ex2", seed=s)
    for d1, d2, seeds in ((4, 4, 2), (10, 10, 2), (50, 60, 1)) for s in range(seeds)
})


def swap(g):
    """The game with the players' roles exchanged: (d2, d1, p2, p1)."""
    return QuadraticGame(Dims(g.dims.d2, g.dims.d1), g.p2, g.p1)


@pytest.fixture(scope="module", params=GAMES)
def pair(request):
    g = GAMES[request.param]()
    return g, swap(g)


def assert_swapped(a, b, names, where):
    """Each field name1 of ``a`` is name2 of ``b``, and name2 of ``a`` name1 of ``b``."""
    for name in names:
        assert_close(getattr(a, f"{name}1"), getattr(b, f"{name}2"), f"{where} {name}1")
        assert_close(getattr(a, f"{name}2"), getattr(b, f"{name}1"), f"{where} {name}2")


@pytest.mark.parametrize("solve", [equilibrium.solve_ccve, equilibrium.solve_via_generalized])
def test_auto_solve_swaps(pair, solve):
    g, h = pair
    a, b = solve(g), solve(h)
    assert_swapped(a, b, ("L", "ell", "x"), "solution")
    assert_close(a.xi_max, b.xi_max[::-1], "xi_max")


def test_nash_social_optimum_and_costs_swap(pair):
    g, h = pair
    (n1, n2), (m1, m2) = analysis.nash(g), analysis.nash(h)
    assert_close(n1, m2, "nash x1")
    assert_close(n2, m1, "nash x2")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        s1, s2, fs = analysis.social_optimum(g)
        r1, r2, fr = analysis.social_optimum(h)
    assert_close(s1, r2, "social x1")
    assert_close(s2, r1, "social x2")
    assert_close(fs, fr, "social cost")
    x1 = np.linspace(-1.0, 1.0, g.dims.d1)
    x2 = np.linspace(0.5, -2.0, g.dims.d2)
    assert_close(eval_cost(g, 1, x1, x2), eval_cost(h, 2, x2, x1), "f1")
    assert_close(eval_cost(g, 2, x1, x2), eval_cost(h, 1, x2, x1), "f2")


@pytest.mark.parametrize("mode", ["cross", "composite"])
def test_iteration_swaps(pair, mode):
    g, h = pair
    cfg = lft.IterationConfig(mode=mode, tol=1e-10)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        a, b = lft.iterate(g, cfg), lft.iterate(h, cfg)
    assert (a.status, a.status_iter, len(a.steps)) == (b.status, b.status_iter, len(b.steps))
    assert_close(a.change, b.change, "change")
    for p, q in zip(a.steps, b.steps):
        assert_swapped(p, q, ("L", "ell", "x", "f", "res"), f"step {p.iteration}")
