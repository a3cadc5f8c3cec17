"""Metamorphic relations: one table of game transforms, run through every
result surface.

A row turns a game g into a case: the transformed game h, the map from a
result field's name in g to its name in h, the map from its value in g to
its value in h, a bound, and whether ``iterate`` keeps its step count. Each
row keeps the coupled Riccati-type conditions on the blocks of
boldM1 = M2^{-T} M1, suitably mapped. What a row leaves out, and why:

- swap: spec(boldM1(h)) is 1/spec(boldM1(g)), so h selects the complement
  of g's selection and spec(H1) is another set.
- scale: the social optimum, the minimizer of f1 + f2, moves unless
  c1 = c2.
- coordinates: the effective Hessians change by a congruence, which a
  diagonal S_i keeps only the signs of, and the residual norms and the
  iteration's stopping rule read Frobenius norms, which only an orthogonal
  S_i keeps; so min_eig_i, res_i and the step count are compared for the
  Householder S_i only.

A fault that scales a solve's own output (L2 times 1 + 1e-12) does so alike
in g and h, which the scaling and the coordinates map onto themselves; so
each solve's L2 in h is also compared with the cross map of g's L1.

test_player_swap.py, test_cost_scaling.py and test_coordinate_change.py run
their rows through the auto solves and the iterations under their test ids;
test_relations.py runs the rows through the other surfaces. Each result is
computed once per session, whichever module asks for it first.
"""

import functools
import warnings
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from ccve import analysis, builders, equilibrium, lft, stability
from ccve.core import Dims, PlayerCost, QuadraticGame, assemble_blocks, eval_cost

from conftest import EPS, METAMORPHIC_GAMES, assert_close

# The swap's games: the 2x3 game, uniform 1x1, 3x3 and 4x4 at seeds 0-2, and
# paper7ex2 4x4 and 10x10 at seeds 0-1 and 50x60 at seed 0.
SWAP_GAMES = {"2x3": builders.example1_game}
SWAP_GAMES.update({
    f"uniform-{d}x{d}-s{s}":
        lambda d=d, s=s: builders.random_game(d, d, recipe="uniform", seed=s)
    for d in (1, 3, 4) for s in range(3)
})
SWAP_GAMES.update({
    f"paper7ex2-{d1}x{d2}-s{s}":
        lambda d1=d1, d2=d2, s=s: builders.random_game(d1, d2, recipe="paper7ex2", seed=s)
    for d1, d2, seeds in ((4, 4, 2), (10, 10, 2), (50, 60, 1)) for s in range(seeds)
})
GAMES = {**SWAP_GAMES, **METAMORPHIC_GAMES, "paper7ex2-100x120-s0":
         lambda: builders.random_game(100, 120, recipe="paper7ex2", seed=0)}

SOLVES = [equilibrium.solve_ccve, equilibrium.solve_via_generalized]
SOLUTION = ("L1", "ell1", "L2", "ell2", "x1", "x2", "H1_spectrum")
REPORT = ("ratios_1", "ratios_2", "xi_max_1", "xi_max_2", "stable", "marginal",
          "internal_inconsistency")
SECOND_ORDER = ("min_eig_1", "min_eig_2", "pass_", "m1_posdef", "m2_posdef")
STEP = ("L1", "ell1", "L2", "ell2", "x1", "x2", "f1", "f2", "res1", "res2")
# Spectra, compared as multisets; chosen by name, as eigvals returns a real
# array when the spectrum is real.
MULTISETS = {"ratios_1", "ratios_2", "H1_spectrum"}


def sort_complex(v):
    """v in lexicographic order, each value's two parts kept together."""
    return np.sort_complex(np.ravel(v)).view(float)


def sort_parts(v):
    """v's sorted real parts, then its sorted imaginary parts: no entry moves
    more than the values do, whatever their order, but how the parts pair
    up is not compared."""
    v = np.asarray(v, dtype=complex).ravel()
    return np.concatenate([np.sort(v.real), np.sort(v.imag)])


def same(value):
    return value


class Case(NamedTuple):
    """A row applied to a game g."""

    h: QuadraticGame
    # A str.translate table from a field's name in g to its name in h.
    names: dict
    # Field name -> the map of g's value to h's; None: not compared; absent: kept.
    values: dict
    tol: float
    keeps_steps: bool
    # A candidate's indices in g -> its indices in h.
    indices: Callable = same
    # A spectrum -> the array it is compared as.
    multiset: Callable = sort_complex


def swap(g):
    """The game with the players' roles exchanged: (d2, d1, p2, p1)."""
    d = g.dims.d
    return Case(QuadraticGame(Dims(g.dims.d2, g.dims.d1), g.p2, g.p1),
                str.maketrans("12", "21"), {"H1_spectrum": None}, 64 * EPS, True,
                lambda idx: tuple(sorted(d - 1 - j for j in range(d) if j not in idx)))


def scaling(c1, c2):
    """The row that multiplies player 1's cost blocks by c1 and player 2's by c2."""
    def scale(p, c):
        return PlayerCost(c * p.A, c * p.B, c * p.D, c * p.a, c * p.b)

    def row(g):
        by1, by2 = (lambda v: c1 * v), (lambda v: c2 * v)
        values = {"f1": by1, "f2": by2, "min_eig_1": by1, "min_eig_2": by2,
                  "H1_spectrum": lambda v: c1 / c2 * v,
                  "social_x1": None, "social_x2": None, "f_social": None}
        return Case(QuadraticGame(g.dims, scale(g.p1, c1), scale(g.p2, c2)),
                    {}, values, 64 * EPS, True)
    return row


def diagonal(d, shift):
    """(S, S^{-1}): the diagonal of powers of two 2^((j + shift) % 3 - 1)."""
    s = 2.0 ** ((np.arange(d) + shift) % 3 - 1)
    return np.diag(s), np.diag(1.0 / s)


def householder(d, shift):
    """(S, S^{-1}): the reflection I - 2 v v^T / (v^T v) of a seeded v."""
    v = np.random.default_rng([d, shift]).standard_normal(d)
    S = np.eye(d) - 2.0 * np.outer(v, v) / (v @ v)
    return S, S.T


def coordinates(make):
    """The row that writes the game in the actions y_i of x_i = S_i y_i."""
    def row(g):
        (S1, T1), (S2, T2) = make(g.dims.d1, 0), make(g.dims.d2, 1)
        p1, p2 = g.p1, g.p2
        h = QuadraticGame(
            g.dims,
            PlayerCost(S1.T @ p1.A @ S1, S2.T @ p1.B @ S1, S2.T @ p1.D @ S2,
                       S1.T @ p1.a, S2.T @ p1.b),
            PlayerCost(S2.T @ p2.A @ S2, S1.T @ p2.B @ S2, S1.T @ p2.D @ S1,
                       S2.T @ p2.a, S1.T @ p2.b),
        )
        in1, in2 = (lambda v: T1 @ v), (lambda v: T2 @ v)
        values = {"L1": lambda v: T2 @ v @ S1, "L2": lambda v: T1 @ v @ S2,
                  "ell1": in2, "ell2": in1, "x1": in1, "x2": in2,
                  "social_x1": in1, "social_x2": in2}
        orthogonal = make is householder
        if not orthogonal:
            values.update(dict.fromkeys(("min_eig_1", "min_eig_2", "res1", "res2")))
        return Case(h, {}, values, 128 * EPS, orthogonal)
    return row


ROWS = {"swap": swap}
ROWS.update({f"scale-{c1:g}-{c2:g}": scaling(c1, c2)
             for c1, c2 in ((2.0, 1.0), (0.25, 8.0), (1024.0, 0.5))})
ROWS.update({"diagonal": coordinates(diagonal), "householder": coordinates(householder)})
CASES = [(rid, gid) for rid in ROWS
         for gid in (SWAP_GAMES if rid == "swap" else METAMORPHIC_GAMES)]


@functools.cache
def game(gid):
    return GAMES[gid]()


@functools.cache
def case(rid, gid):
    return ROWS[rid](game(gid))


@functools.cache
def result(rid, gid, fn, *args):
    """fn(g, *args) for the game gid, or for its case of row rid if not None."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        return fn(game(gid) if rid is None else case(rid, gid).h, *args)


def results(rid, gid, fn, *args):
    return result(None, gid, fn, *args), result(rid, gid, fn, *args)


def mapped(c, a, names):
    """{name in h: value in h} of the fields ``names`` of ``a``, each mapped
    as the case maps it; fields it does not compare are left out."""
    out = {}
    for name in names:
        to_h = c.values.get(name, same)
        if to_h is not None:
            out[name.translate(c.names)] = to_h(getattr(a, name))
    return out


def assert_maps(c, a, b, names, where):
    """Each field of ``a`` in ``names``, mapped by the case, is b's field."""
    for name, value in mapped(c, a, names).items():
        expected = getattr(b, name)
        if name in MULTISETS:
            value, expected = c.multiset(value), c.multiset(expected)
        assert_close(value, expected, f"{where} {name}", c.tol)


def assert_solves_map(c, g, a, b, where="solution"):
    """b, a solution of h, is the solution a of g mapped, with its certificate."""
    assert_maps(c, a, b, SOLUTION, where)
    assert_maps(c, a.stability, b.stability, REPORT, where)
    assert_maps(c, a.second_order, b.second_order, SECOND_ORDER, where)
    # The cross map of g's L1, which does not pass through the solve's own L2.
    assert_maps(c, SimpleNamespace(L2=lft.lft_cross(g, 1, a.L1)), b, ("L2",), f"{where} cross map")


def assert_traces_map(c, a, b):
    assert a.status == b.status
    if c.keeps_steps:
        assert (a.status_iter, len(a.steps)) == (b.status_iter, len(b.steps))
        assert_maps(c, a, b, ("change",), "trace")
    for p, q in zip(a.steps, b.steps):
        assert_maps(c, p, q, STEP, f"step {p.iteration}")


def check_auto_solve(rid, gid, solve):
    assert_solves_map(case(rid, gid), game(gid), *results(rid, gid, solve))


def check_iterate(rid, gid, mode):
    cfg = lft.IterationConfig(mode=mode, tol=1e-10)
    assert_traces_map(case(rid, gid), *results(rid, gid, lft.iterate, cfg))


def certificates(g, sol):
    return (stability.certify(assemble_blocks(g), g, sol.L1, sol.L2),
            analysis.second_order_check(g, sol.L1, sol.L2))


def check_certify(rid, gid):
    c = case(rid, gid)
    a, b = results(rid, gid, equilibrium.solve_ccve)
    (ra, sa), (rb, sb) = certificates(game(gid), a), certificates(c.h, b)
    assert_maps(c, ra, rb, REPORT, "certify")
    assert_maps(c, sa, sb, SECOND_ORDER, "second order")


def check_outcomes(rid, gid):
    """nash, social_optimum and eval_cost at a fixed pair of actions."""
    g, c = game(gid), case(rid, gid)

    def outcomes(game, x1, x2):
        n1, n2 = analysis.nash(game)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="NotCertifiedMin")
            s1, s2, fs = analysis.social_optimum(game)
        return SimpleNamespace(x1=n1, x2=n2, social_x1=s1, social_x2=s2, f_social=fs,
                               f1=eval_cost(game, 1, x1, x2), f2=eval_cost(game, 2, x1, x2))

    x = SimpleNamespace(x1=np.linspace(-1.0, 1.0, g.dims.d1),
                        x2=np.linspace(0.5, -2.0, g.dims.d2))
    y = mapped(c, x, ("x1", "x2"))
    assert_maps(c, outcomes(g, x.x1, x.x2), outcomes(c.h, y["x1"], y["x2"]),
                ("x1", "x2", "social_x1", "social_x2", "f_social", "f1", "f2"),
                "nash, social optimum and costs")
