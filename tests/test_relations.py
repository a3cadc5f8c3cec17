"""Every row of the relation table (relations.py) through the surfaces its
own module does not run: certify and the second-order check, nash and the
costs under the scalings and the changes of coordinates, enumeration, one
Hypothesis draw and paper7ex2 100x120 s0.
"""

import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccve import builders, equilibrium, lft

from relations import (
    CASES, ROWS, SOLVES, assert_solves_map, assert_traces_map, case, check_certify,
    check_outcomes, game, results, sort_parts,
)


@pytest.mark.parametrize("row_game", CASES, ids="-".join)
def test_certify_and_second_order(row_game):
    check_certify(*row_game)


# The swap's runs in test_player_swap.py.
@pytest.mark.parametrize("row_game", [rg for rg in CASES if rg[0] != "swap"], ids="-".join)
def test_nash_social_optimum_and_costs(row_game):
    check_outcomes(*row_game)


# Enumeration on the games with d <= 8. Under the swap, spec(boldM1) of h is
# 1/spec(boldM1(g)), so each candidate's indices map to the complement, read
# in the reversed order; the other rows keep them. Only the certified-stable
# candidates are compared, one in each case: an unstable candidate's subspace
# can be ill-conditioned (its L moved by up to 3.2e6 eps under the swap and
# 6.1e5 eps under the Householder S_i). Skip reasons are not compared: they
# differ on 2 of the 47 cases (the swapped 2x3 game's SubspaceNotGraph is
# SingularBestResponse in h, as Y1 of one game plays P of the other).
def dimension(gid):
    """d1 + d2, read from the game's id, so that collecting builds no game."""
    return sum(map(int, re.search(r"(\d+)x(\d+)", gid).groups()))


@pytest.mark.parametrize("row_game", [rg for rg in CASES if dimension(rg[1]) <= 8],
                         ids="-".join)
def test_enumeration(row_game):
    c = case(*row_game)
    a, b = results(*row_game, equilibrium.enumerate_fixed_points)
    found = {c.indices(p.indices): p.solution for p in a.candidates}
    assert set(found) == {q.indices for q in b.candidates}
    for q in b.candidates:
        p = found[q.indices]
        if p.stable:
            assert_solves_map(c, game(row_game[1]), p, q.solution, f"candidate {q.indices}")


# One drawn uniform game (d1, d2 <= 4) under one drawn row: both routes'
# auto solves and one iteration. The uniform recipe's games of this size
# solve and converge (all 100 drawn here do).
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from(list(ROWS)), st.sampled_from(["cross", "composite"]))
def test_drawn_game_under_a_drawn_row(d1, d2, seed, rid, mode):
    g = builders.random_game(d1, d2, recipe="uniform", seed=seed)
    c = ROWS[rid](g)
    for solve in SOLVES:
        assert_solves_map(c, g, solve(g), solve(c.h))
    cfg = lft.IterationConfig(mode=mode, tol=1e-10)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="NotCertifiedMin")
        assert_traces_map(c, lft.iterate(g, cfg), lft.iterate(c.h, cfg))


# paper7ex2 100x120 s0 under every row, both routes' auto solves. Its
# selected subspace is ill-conditioned: xi_max = 0.99293, and the first-order
# bound on the subspace angle is 1.3e-10 (ROADMAP item 7). The rows move the
# Schur route's fields by up to 49829 eps of their largest entry (the
# Householder S_i's min_eig_2; L2 39394 eps under the diagonal S_i, ell2
# 17332 eps under the swap, nothing under the scaling), above
# 64 eps / (1 - xi_max), about 9050 eps, and the QZ route's by up to 1965
# eps. So the bound is 1e-10 relative, and at this size a planted 1e-12
# relative error is invisible. The spectra are compared part by part, which
# is weaker than the table's sort_complex: among the 12000 ratios near-equal
# real parts change places, and sort_complex then reads 1e14 eps.
@pytest.mark.parametrize("solve", SOLVES)
@pytest.mark.parametrize("rid", ROWS)
def test_paper7ex2_100x120_s0(rid, solve):
    gid = "paper7ex2-100x120-s0"
    c = case(rid, gid)._replace(tol=1e-10, multiset=sort_parts)
    assert_solves_map(c, game(gid), *results(rid, gid, solve))
