"""The kernel ledger: what one public operation costs, call by call.

Each row gives the exact number of calls one operation makes of every
callable of core.lapack and of np.linalg.eigvals, as conftest.count_calls
counts them. A kernel a row leaves out must not be called at all (dgetri
included), so the test fails on any added or removed kernel call. Each row
runs on the 2x3 game and on paper7ex2 50x60 s0. A Schur or QZ form is two
calls, dgees 2 or dgges 2: its workspace query and the form. A guarded solve
is one dgesv, and only a transposed one a dgetrf and a dgetrs. README
"Numerical guards" shows the same table.
"""

from collections import Counter
from functools import partial

import pytest

from ccve import builders
from ccve.analysis import nash, second_order_check, social_optimum
from ccve.core import assemble_blocks, validate_game
from ccve.equilibrium import enumerate_fixed_points, solve_ccve, solve_via_generalized
from ccve.lft import IterationConfig, best_response, composite_step, iterate, lft_cross
from ccve.stability import certify


def lu(n, solves=0):
    """n checked LUs (dgetrf, its dgecon rcond and the 1-norm dlange that
    dgecon reads) and ``solves`` dgetrs solves with them."""
    return Counter(dgetrf=n, dgecon=n, dlange=n, dgetrs=solves)


def gesv(n):
    """n checked solves (dgesv, which factors and solves in one call, the
    dgecon rcond of its LU and the 1-norm dlange that dgecon reads)."""
    return Counter(dgesv=n, dgecon=n, dlange=n)


# One Cholesky solve of a positive definite symmetric system: dposv, and
# dpocon's rcond with its dlange.
CHOLESKY = Counter(dposv=1, dpocon=1, dlange=1)
# _factor_m: the A_1 > 0 and A_2 > 0 Cholesky attempts, then the LUs of M1, M2.
FACTOR_M = lu(2) + Counter(dpotrf=2)
# A certified solve. Six LUs: M1, M2, Y1, the H1 guard, and the guards of
# K = bC1 L2 + bD1 and J = bA1 - L2 bC1; two dgetrs with them, boldM1 and
# the transposed L1 = X1 Y1^{-1}. Four dgesv: one P1^T for both L2 and ell2,
# P2^T for ell1, I - L2 L1 for the actions, and the alternate form of H1.
# Four Cholesky attempts: A_1 > 0, A_2 > 0 and the m1_posdef and m2_posdef
# flags; so the smallest eigenvalue is computed for S1 and S2 only.
SOLVE = lu(6, solves=2) + gesv(4) + Counter(dpotrf=4, dsyevr=2)


def conjecture(sol, i):
    """(L, ell): player i's conjecture at the solution sol."""
    return ((sol.L1, sol.ell1), (sol.L2, sol.ell2))[i - 1]


# name -> (operation from (game, solution) to a call without arguments, its counts).
LEDGER = {
    "validate_game": (lambda g, sol: partial(validate_game, g), FACTOR_M),
    "assemble_blocks": (lambda g, sol: partial(assemble_blocks, g),
                        FACTOR_M + Counter(dgetrs=1)),
    "solve_ccve": (lambda g, sol: partial(solve_ccve, g),
                   SOLVE + Counter(dgees=2, dtrsen=1)),
    # The QZ form, its reorder, and the QR (dgeqrf, dorgqr) of the basis
    # whose span the deflation check projects on.
    "solve_via_generalized": (lambda g, sol: partial(solve_via_generalized, g),
                              SOLVE + Counter(dgges=2, dtgsen=1, dgeqrf=1, dorgqr=1)),
    # Without spectra: the H1 alternate form, the guard of K, the guards of
    # J and H1 inside perturbation_spectrum (player 2's first), and the
    # eigenvalues of each player's two factors.
    "certify": (lambda g, sol: partial(certify, assemble_blocks(g), g, sol.L1, sol.L2),
                gesv(1) + lu(3) + Counter(eigvals=4)),
    "second_order_check": (lambda g, sol: partial(second_order_check, g, sol.L1, sol.L2),
                           Counter(dpotrf=2, dsyevr=2)),
    "nash": (lambda g, sol: partial(nash, g), gesv(1)),
    "social_optimum": (lambda g, sol: partial(social_optimum, g), CHOLESKY),
}
for _i in (1, 2):
    LEDGER[f"lft_cross-{_i}"] = (
        lambda g, sol, i=_i: partial(lft_cross, g, i, conjecture(sol, i)[0]),
        gesv(1))
    # Player 1's composite update is a right division: a transposed solve.
    LEDGER[f"composite_step-{_i}"] = (
        lambda g, sol, i=_i: partial(composite_step, assemble_blocks(g), i,
                                     conjecture(sol, i)[0]),
        lu(1, solves=1) if _i == 1 else gesv(1))
    LEDGER[f"best_response-{_i}"] = (
        lambda g, sol, i=_i: partial(best_response, g, i, *conjecture(sol, i)),
        CHOLESKY)


def iteration_row(mode, n):
    """Counts of an n-step run from the Nash init.

    Every effective Hessian S_i of these runs is positive definite, so each
    best response is one Cholesky solve; an indefinite S_i trades its dpocon
    for the LU fallback's dgesv and dgecon.
    Cross: the LUs of M1 and M2, and one dgesv for the Nash system, for each
    of step 1's two slope maps, and for each player and step, which gives its
    offset and the next slope. Composite: _factor_m and M2^{-T} M1, the Nash
    system, and a step's two offsets and two composite updates, player 1's a
    transposed solve. Both record two best responses a step and at the start.
    """
    maps = (lu(2) + gesv(2 * n + 3) if mode == "cross"
            else lu(n + 2, solves=n + 1) + gesv(3 * n + 1))
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


def assert_counts(count_calls, call, counts):
    """The counts of call() are ``counts``."""
    calls = count_calls()
    call()
    assert calls == counts


@pytest.mark.parametrize("name", LEDGER)
def test_operation_kernel_counts(count_calls, game, solution, name):
    setup, counts = LEDGER[name]
    assert_counts(count_calls, setup(game, solution), counts)


def test_enumeration_kernel_counts(count_calls, bench_game):
    # One Schur form and the m1_posdef and m2_posdef Cholesky attempts; then
    # per candidate subset (10) one reorder, and per solved candidate (6) the
    # rest of a solve without _factor_m and those two attempts; each subset
    # skipped at its Y1 guard (4, SubspaceNotGraph) makes one LU.
    counts = (lu(30, solves=7) + gesv(24)
              + Counter(dgees=2, dtrsen=10, dpotrf=4, dsyevr=12))
    assert_counts(count_calls, partial(enumerate_fixed_points, bench_game), counts)


@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("mode", ["cross", "composite"])
def test_iteration_kernel_counts(count_calls, game, mode, n):
    def run():
        trace = iterate(game, IterationConfig(mode=mode, max_iters=n, tol=1e-30))
        assert len(trace.steps) == n + 1

    assert_counts(count_calls, run, iteration_row(mode, n))
