"""The kernel ledger: what one public operation costs, call by call.

Each row gives the exact number of calls one operation makes of every
callable of core.lapack and of np.linalg.eigvals, as conftest.count_calls
counts them. A kernel a row leaves out must not be called at all (dgetri
included), so the test fails on any added or removed kernel call. Each row
runs on the 2x3 game and on paper7ex2 50x60 s0, first with an empty
spectral._LWORK and then cached: a Schur or QZ form's first call at an order
adds its workspace query, one more dgees or dgges. README "Numerical guards"
shows the same table.
"""

from collections import Counter
from functools import partial

import pytest

from ccve import builders, spectral
from ccve.analysis import nash, second_order_check, social_optimum
from ccve.core import Conjecture, assemble_blocks, validate_game
from ccve.equilibrium import enumerate_fixed_points, solve_ccve, solve_via_generalized
from ccve.lft import IterationConfig, best_response, composite_step, iterate, lft_cross
from ccve.stability import certify


def lu(n, solves=0):
    """n checked LUs (dgetrf, its dgecon rcond and the 1-norm dlange that
    dgecon reads) and ``solves`` dgetrs solves with them."""
    return Counter(dgetrf=n, dgecon=n, dlange=n, dgetrs=solves)


# One Cholesky solve of a positive definite symmetric system: dposv, and
# dpocon's rcond with its dlange.
CHOLESKY = Counter(dposv=1, dpocon=1, dlange=1)
# _factor_m: the A_1 > 0 and A_2 > 0 Cholesky attempts, then the LUs of M1, M2.
FACTOR_M = lu(2) + Counter(dpotrf=2)
# A certified solve. Ten LUs: M1, M2, Y1, one P1^T for both L2 and ell2,
# P2^T for ell1, I - L2 L1, the alternate form of H1, the H1 guard, and the
# guards of K = bC1 L2 + bD1 and J = bA1 - L2 bC1. Six solves: boldM1,
# L1 = X1 Y1^{-1}, one for both L2 and ell2, ell1, the actions and H1's
# alternate form.
# Four Cholesky attempts: A_1 > 0, A_2 > 0 and the m1_posdef and m2_posdef
# flags; so the smallest eigenvalue is computed for S1 and S2 only.
SOLVE = lu(10, solves=6) + Counter(dpotrf=4, dsyevr=2)


def conjecture(game, sol, i):
    """Player i's conjecture at the solution sol."""
    L, ell = ((sol.L1, sol.ell1), (sol.L2, sol.ell2))[i - 1]
    return Conjecture.create(i, L, ell, game.dims)


# name -> (operation from (game, solution) to a call without arguments,
# counts of a cached call, the form whose workspace query a first call adds).
LEDGER = {
    "validate_game": (lambda g, sol: partial(validate_game, g), FACTOR_M, None),
    "assemble_blocks": (lambda g, sol: partial(assemble_blocks, g),
                        FACTOR_M + Counter(dgetrs=1), None),
    "solve_ccve": (lambda g, sol: partial(solve_ccve, g),
                   SOLVE + Counter(dgees=1, dtrsen=1), "dgees"),
    "solve_via_generalized": (lambda g, sol: partial(solve_via_generalized, g),
                              SOLVE + Counter(dgges=1, dtgsen=1), "dgges"),
    # Without spectra: the H1 alternate form, the guard of K, the guards of
    # J and H1 inside perturbation_spectrum (player 2's first), and the
    # eigenvalues of each player's two factors.
    "certify": (lambda g, sol: partial(certify, assemble_blocks(g), g, sol.L1, sol.L2),
                lu(4, solves=1) + Counter(eigvals=4), None),
    "second_order_check": (lambda g, sol: partial(second_order_check, g, sol.L1, sol.L2),
                           Counter(dpotrf=2, dsyevr=2), None),
    "nash": (lambda g, sol: partial(nash, g), lu(1, solves=1), None),
    "social_optimum": (lambda g, sol: partial(social_optimum, g), CHOLESKY, None),
}
for _i in (1, 2):
    LEDGER[f"lft_cross-{_i}"] = (
        lambda g, sol, i=_i: partial(lft_cross, g, i, conjecture(g, sol, i).L),
        lu(1, solves=1), None)
    LEDGER[f"composite_step-{_i}"] = (
        lambda g, sol, i=_i: partial(composite_step, assemble_blocks(g), i,
                                     conjecture(g, sol, i).L),
        lu(1, solves=1), None)
    LEDGER[f"best_response-{_i}"] = (
        lambda g, sol, i=_i: partial(best_response, g, i, conjecture(g, sol, i)),
        CHOLESKY, None)


def iteration_row(mode, n):
    """Counts of an n-step run from the Nash init.

    Every effective Hessian S_i of these runs is positive definite, so each
    best response is one Cholesky solve; an indefinite S_i trades its dpocon
    for the LU fallback's dgetrf, dgecon and dgetrs.
    Cross: the Nash system, M1 and M2, step 1's two slope maps, and one
    P_i^T LU and one solve a player and step for its offset and the next
    slope. Composite:
    _factor_m and M2^{-T} M1, the Nash system, and two composite updates and
    two offsets a step. Both record two best responses a step and at the start.
    """
    maps = (lu(2 * n + 5, solves=2 * n + 3) if mode == "cross"
            else lu(4 * n + 3, solves=4 * n + 2))
    responses = Counter({name: 2 * n + 2 for name in CHOLESKY})
    return maps + responses + Counter(dpotrf=2)


GAMES = [
    pytest.param(builders.example1_game, id="2x3"),
    pytest.param(lambda: builders.random_game(50, 60, recipe="paper7ex2", seed=0),
                 id="paper7ex2-50x60-s0"),
]


@pytest.fixture(scope="module", params=GAMES)
def game(request):
    return request.param()


@pytest.fixture(scope="module")
def solution(game):
    """The certified auto solve of the game, made before any counting."""
    sol = solve_ccve(game)
    assert sol.stable
    return sol


def assert_first_and_cached(monkeypatch, count_calls, call, cached, query):
    """The counts of call() after clearing spectral._LWORK, then cached."""
    monkeypatch.setattr(spectral, "_LWORK", {})
    calls = count_calls()
    call()
    assert calls == cached + Counter({query: 1} if query else {})
    calls.clear()
    call()
    assert calls == cached


@pytest.mark.parametrize("name", LEDGER)
def test_operation_kernel_counts(monkeypatch, count_calls, game, solution, name):
    setup, cached, query = LEDGER[name]
    assert_first_and_cached(monkeypatch, count_calls, setup(game, solution), cached, query)


def test_enumeration_kernel_counts(monkeypatch, count_calls, bench_game):
    # One Schur form and the m1_posdef and m2_posdef Cholesky attempts; then
    # per candidate subset (10) one reorder, and per solved candidate (6) the
    # rest of a solve without _factor_m and those two attempts.
    cached = lu(54, solves=31) + Counter(dgees=1, dtrsen=10, dpotrf=4, dsyevr=12)
    assert_first_and_cached(monkeypatch, count_calls,
                            partial(enumerate_fixed_points, bench_game), cached, "dgees")


@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("mode", ["cross", "composite"])
def test_iteration_kernel_counts(monkeypatch, count_calls, game, mode, n):
    def run():
        trace = iterate(game, IterationConfig(mode=mode, max_iters=n, tol=1e-30))
        assert len(trace.steps) == n + 1

    assert_first_and_cached(monkeypatch, count_calls, run, iteration_row(mode, n), None)
