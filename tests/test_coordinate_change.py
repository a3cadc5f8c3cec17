"""Metamorphic relation: a change of action coordinates x_i = S_i y_i.

In the coordinates y_i, with S_i invertible, player 1's cost blocks are
A1' = S1^T A1 S1, B1' = S2^T B1 S1, D1' = S2^T D1 S2, a1' = S1^T a1 and
b1' = S2^T b1, and player 2's alike with the indices exchanged. A
conjecture x_{-i} = L_i x_i + ell_i reads y_{-i} = L_i' y_i + ell_i' with
L1' = S2^{-1} L1 S1, L2' = S1^{-1} L2 S2 and ell_i' = S_{-i}^{-1} ell_i, and
the actions are y_i = S_i^{-1} x_i. boldM1 changes by the similarity
diag(S1, S2), so its spectrum, the selection, xi_max and spec(H1) keep
their values, and so does each player's cost.

Two kinds of S_i: a diagonal of powers of two (1/2, 1, 2, ...), which
rounds nothing in forming the game, and a Householder reflection, which is
orthogonal. The iteration stops on Frobenius norms of its step change and
its residuals; an orthogonal S_i keeps them, so those runs keep their step
count. A diagonal S_i does not: on 4 of the 12 games a run stops one or two
steps apart, so there the steps both runs reach are compared.

A fault that scales a solve's own output (say L2 times 1 + 1e-12) scales it
alike in both coordinates, which the relation maps onto itself. So the
solve's L2 in the y coordinates is also compared with the cross map of the
x coordinates' L1, which the solve does not call.
"""

import warnings

import numpy as np
import pytest

from ccve import equilibrium, lft
from ccve.core import PlayerCost, QuadraticGame

from conftest import EPS, METAMORPHIC_GAMES, assert_close

# The largest difference measured on these games: 70 eps, in the selected
# eigenvalues of paper7ex2 50x60 s0 with the diagonal S_i (62 eps in its
# L1); 46 eps with the Householder S_i, against 1.8e-14 (80 eps) measured
# for an orthogonal S_i on 50x60 s0 when the relation was first checked. A
# planted 1e-12 relative error on L2 is about 4500 eps relative to L2's
# largest entry.
TOL = 128 * EPS


def diagonal(d, shift):
    """(S, S^{-1}): the diagonal of powers of two 2^((j + shift) % 3 - 1)."""
    s = 2.0 ** ((np.arange(d) + shift) % 3 - 1)
    return np.diag(s), np.diag(1.0 / s)


def householder(d, shift):
    """(S, S^{-1}): the reflection I - 2 v v^T / (v^T v) of a seeded v."""
    v = np.random.default_rng([d, shift]).standard_normal(d)
    S = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    return S, S.T


COORDINATES = {"diagonal": diagonal, "householder": householder}


def in_coordinates(g, S1, S2):
    """The game g in the actions y_i of x_i = S_i y_i."""
    p1, p2 = g.p1, g.p2
    return QuadraticGame(
        g.dims,
        PlayerCost(S1.T @ p1.A @ S1, S2.T @ p1.B @ S1, S2.T @ p1.D @ S2,
                   S1.T @ p1.a, S2.T @ p1.b),
        PlayerCost(S2.T @ p2.A @ S2, S1.T @ p2.B @ S2, S1.T @ p2.D @ S1,
                   S2.T @ p2.a, S1.T @ p2.b),
    )


@pytest.fixture(scope="module", params=METAMORPHIC_GAMES)
def game(request):
    return METAMORPHIC_GAMES[request.param]()


@pytest.fixture(scope="module", params=COORDINATES)
def case(request, game):
    """(g, h, to_y, orthogonal): the game, the game in y coordinates, the
    map from each result field's name to the function that reads its value
    in y coordinates, and whether S_1 and S_2 are orthogonal."""
    make = COORDINATES[request.param]
    (S1, T1), (S2, T2) = make(game.dims.d1, 0), make(game.dims.d2, 1)
    to_y = {"L1": lambda v: T2 @ v @ S1, "L2": lambda v: T1 @ v @ S2,
            "ell1": lambda v: T2 @ v, "ell2": lambda v: T1 @ v,
            "x1": lambda v: T1 @ v, "x2": lambda v: T2 @ v}
    return game, in_coordinates(game, S1, S2), to_y, request.param == "householder"


def assert_changed(a, b, to_y, where):
    """Each slope, offset and action of ``b`` is that of ``a`` in y coordinates."""
    for name in ("L1", "ell1", "L2", "ell2", "x1", "x2"):
        assert_close(to_y[name](getattr(a, name)), getattr(b, name), f"{where} {name}", TOL)


@pytest.mark.parametrize("solve", [equilibrium.solve_ccve, equilibrium.solve_via_generalized])
def test_auto_solve_changes_coordinates(case, solve):
    g, h, to_y, _ = case
    a, b = solve(g), solve(h)
    assert_changed(a, b, to_y, "solution")
    assert_close(a.xi_max, b.xi_max, "xi_max", TOL)
    assert_close(np.sort_complex(a.H1_spectrum).view(float),
                 np.sort_complex(b.H1_spectrum).view(float), "H1 spectrum", TOL)
    # The cross map of L1, read in the other coordinates.
    assert_close(to_y["L2"](lft.lft_cross(g, 1, a.L1)), b.L2, "cross map L2", TOL)


@pytest.mark.parametrize("mode", ["cross", "composite"])
def test_iteration_changes_coordinates(case, mode):
    g, h, to_y, orthogonal = case
    cfg = lft.IterationConfig(mode=mode, tol=1e-10)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        a, b = lft.iterate(g, cfg), lft.iterate(h, cfg)
    assert a.status == b.status
    if orthogonal:
        assert (a.status_iter, len(a.steps)) == (b.status_iter, len(b.steps))
    for p, q in zip(a.steps, b.steps):
        where = f"step {p.iteration}"
        assert_changed(p, q, to_y, where)
        assert_close(p.f1, q.f1, f"{where} f1", TOL)
        assert_close(p.f2, q.f2, f"{where} f2", TOL)
