"""Numerical guards: one factorization + 1-norm condition estimate per solve.

Each guard factors its matrix once (LAPACK dgetrf), compares dgecon's 1-norm
reciprocal-condition estimate with its threshold, and solves with the same
LU.  The symmetric systems of best_response and social_optimum factor once
too: a Cholesky solve (dposv) flags definiteness and, when it factors, its
solution stands once dpocon's estimate passes RCOND_MIN; only when it fails
do they take the LU.  Near-singular inputs must still raise the site's
typed error, and well-conditioned inputs must give the same answers as
``np.linalg.solve``.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from ccve import analysis, core, equilibrium, spectral, stability
from ccve.core import (
    RCOND_MIN,
    RCOND_SINGULAR,
    QuadraticGame,
    _lu_rcond,
    _solve_checked,
    _solve_sym_checked,
    assemble_blocks,
    stacked_m1,
    stacked_m2,
    validate_game,
)
from ccve.errors import (
    DimensionMismatch,
    EigFailure,
    MSingular,
    NotAFixedPoint,
    SingularActionSystem,
    SingularBestResponse,
    SingularComposite,
    SingularNashSystem,
    SingularSocialSystem,
    SubspaceNotGraph,
)
from ccve.lft import (IterationConfig, best_response, composite_step, iterate,
                      lft_cross, offset_cross)

from conftest import random_dense_game, uniform_pool

# Smallest singular value planted in the near-singular matrices, relative to
# the largest: far below every threshold, yet not an exact zero, so dgetrf
# succeeds and the guard decides on dgecon's estimate.
PLANTED_SIGMA_MIN = 1e-17


def lu_pivots_nonzero(m):
    return lapack.dgetrf(m)[2] == 0


def planted(rng, n, symmetric=False):
    """n x n matrix with singular values 1 > ... >= 0.1 and one of 1e-17.

    The symmetric version is exactly symmetric and positive semidefinite.
    Draws are repeated until the LU of the rounded matrix has no zero pivot.
    """
    s = np.geomspace(1.0, 0.1, n)
    s[-1] = PLANTED_SIGMA_MIN
    while True:
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = u if symmetric else np.linalg.qr(rng.standard_normal((n, n)))[0]
        m = (u * s) @ v.T
        if symmetric:
            m = 0.5 * (m + m.T)
        if lu_pivots_nonzero(m):
            return m


def blocks_of(p):
    return (p.A, p.B, p.D, p.a, p.b)


def with_player(game, i, A=None, B=None, D=None):
    """Copy of ``game`` with some of player i's matrix blocks replaced."""
    p = game.player(i)
    new = (p.A if A is None else A, p.B if B is None else B,
           p.D if D is None else D, p.a, p.b)
    if i == 1:
        return QuadraticGame.create(game.dims.d1, game.dims.d2, new, blocks_of(game.p2))
    return QuadraticGame.create(game.dims.d1, game.dims.d2, blocks_of(game.p1), new)


def planted_bold(blocks, name, a):
    """Copy of ``blocks`` whose boldM1 = [[bA1, bB1], [bC1, bD1]] has ``a``
    as its block ``name``; bA1 is the leading d1 x d1 block."""
    d1 = blocks.dims.d1
    head, tail = slice(None, d1), slice(d1, None)
    rows, cols = {"bA1": (head, head), "bB1": (head, tail),
                  "bC1": (tail, head), "bD1": (tail, tail)}[name]
    m = blocks.boldM1.copy()
    m[rows, cols] = a
    return blocks._replace(boldM1=m)


@pytest.fixture
def rng():
    return np.random.default_rng(20230519)


class TestNearSingularRaises:
    @pytest.mark.parametrize("player", [1, 2])
    def test_m_singular(self, rng, player):
        d1, d2 = 2, 3
        g = random_dense_game(rng, d1, d2)
        m = planted(rng, d1 + d2, symmetric=True)
        if player == 1:  # M1 = [[A1, B1^T], [B1, D1]]
            g = with_player(g, 1, A=m[:d1, :d1], B=m[d1:, :d1], D=m[d1:, d1:])
        else:  # M2 = [[D2, B2], [B2^T, A2]]
            g = with_player(g, 2, A=m[d1:, d1:], B=m[:d1, d1:], D=m[:d1, :d1])
        for fn in (validate_game, assemble_blocks):
            with pytest.raises(MSingular) as exc:
                fn(g)
            assert exc.value.player == player
            assert exc.value.rcond < RCOND_SINGULAR
            assert "1-norm rcond estimate" in str(exc.value)

    @pytest.mark.parametrize("player", [1, 2])
    def test_singular_best_response(self, rng, player):
        g = random_dense_game(rng, 3, 3)
        g = with_player(g, player, A=planted(rng, 3, symmetric=True))
        zero = np.zeros((3, 3))
        # At L = 0 every map inverts A_i (or its transpose).
        with pytest.raises(SingularBestResponse):
            lft_cross(g, player, zero)
        with pytest.raises(SingularBestResponse):
            offset_cross(g, player, zero)
        with pytest.raises(SingularBestResponse):
            best_response(g, player, zero, np.zeros(3))

    @pytest.mark.parametrize("player", [1, 2])
    def test_singular_composite(self, rng, player):
        blocks = assemble_blocks(random_dense_game(rng, 3, 3))
        blocks = planted_bold(blocks, "bA1", planted(rng, 3))
        zero = np.zeros((3, 3))
        # At L = 0 both composite denominators, bA1 + bB1 L1 and
        # bA1 - L2 bC1, are bA1 itself.
        with pytest.raises(SingularComposite):
            composite_step(blocks, player, zero)
        with pytest.raises(SingularComposite):
            stability.perturbation_spectrum(blocks, player, zero)

    def test_singular_nash_system(self, rng):
        d1, d2 = 2, 3
        g = random_dense_game(rng, d1, d2)
        k = planted(rng, d1 + d2, symmetric=True)
        # K = [[A1, B1^T], [B2^T, A2]]
        g = with_player(g, 1, A=k[:d1, :d1], B=k[d1:, :d1])
        g = with_player(g, 2, A=k[d1:, d1:], B=k[:d1, d1:])
        with pytest.raises(SingularNashSystem):
            analysis.nash(g)

    def test_singular_social_system(self, rng):
        d1, d2 = 2, 3
        g = random_dense_game(rng, d1, d2)
        # Choose M2 so that sym(M1 + M2) is the planted matrix; its scale of
        # 10 keeps the rounding of the subtraction well below the planted gap.
        t = 10.0 * planted(rng, d1 + d2, symmetric=True) - stacked_m1(g)
        g = with_player(g, 2, A=t[d1:, d1:], B=t[:d1, d1:], D=t[:d1, :d1])
        assert lu_pivots_nonzero(stacked_m1(g) + stacked_m2(g))
        with pytest.raises(SingularSocialSystem):
            analysis.social_optimum(g)

    def test_singular_action_system(self, rng):
        n = 3
        # I - L2 L1 with L1 = I and L2 = I - N is N up to rounding.
        L1 = np.eye(n)
        L2 = np.eye(n) - planted(rng, n)
        assert lu_pivots_nonzero(np.eye(n) - L2 @ L1)
        with pytest.raises(SingularActionSystem):
            equilibrium._solve_actions(L1, np.zeros(n), L2, np.zeros(n))

    def test_subspace_not_graph(self, rng):
        g = random_dense_game(rng, 3, 3)
        blocks = assemble_blocks(g)
        sub = spectral.invariant_subspace(blocks.boldM1, 3, spectral.LargestMagnitude)
        basis = sub.basis.copy()
        basis[:3] = planted(rng, 3)  # Y1, the top d1 rows
        sub = sub._replace(basis=basis)
        with pytest.raises(SubspaceNotGraph):
            equilibrium._solution_from_subspace(g, blocks, sub,
                                                spectral.LargestMagnitude, (True, True))


def diag_rcond(t):
    """diag(1, t): its 1-norm rcond is t, and dgecon estimates it exactly."""
    return np.diag([1.0, t])


def boundary_game(t):
    """2x2 game with A1 = diag(1, t) and no cross terms.

    At zero slopes the player-1 maps invert diag(1, t), and the Nash system
    is diag(1, t, 1, 1).
    """
    z, eye, v = np.zeros((2, 2)), np.eye(2), np.zeros(2)
    return QuadraticGame.create(2, 2, (diag_rcond(t), z, eye, v, v), (eye, z, eye, v, v))


def social_boundary_game(t):
    """2x2 game with sym(M1 + M2) = diag(1, t, 1, 1).

    M1 = diag(1, t, 1/2, 1/2) and M2 = diag(0, 0, 1/2, 1/2): no cross terms.
    """
    z, half, v = np.zeros((2, 2)), 0.5 * np.eye(2), np.zeros(2)
    return QuadraticGame.create(2, 2, (diag_rcond(t), z, half, v, v), (half, z, z, v, v))


ZERO = np.zeros((2, 2))
BOUNDARY_SITES = [
    pytest.param(lambda t, blocks: lft_cross(boundary_game(t), 1, ZERO),
                 SingularBestResponse, id="lft_cross"),
    pytest.param(lambda t, blocks: offset_cross(boundary_game(t), 1, ZERO),
                 SingularBestResponse, id="offset_cross"),
    pytest.param(lambda t, blocks: composite_step(
                     planted_bold(blocks, "bA1", diag_rcond(t)), 1, ZERO),
                 SingularComposite, id="composite_step"),
    pytest.param(lambda t, blocks: stability.perturbation_spectrum(
                     planted_bold(blocks, "bA1", diag_rcond(t)), 1, ZERO),
                 SingularComposite, id="perturbation_spectrum"),
    # I - L2 L1 = diag(1, 1 - (1 - t)): t up to a rounding of about 1%.
    pytest.param(lambda t, blocks: equilibrium._solve_actions(
                     np.diag([0.0, 1.0]), np.zeros(2),
                     np.diag([0.0, 1.0 - t]), np.zeros(2)),
                 SingularActionSystem, id="solve_actions"),
    pytest.param(lambda t, blocks: analysis.nash(boundary_game(t)),
                 SingularNashSystem, id="nash"),
    # At L = 0 the effective Hessian S_1 is A1 = diag(1, t).
    pytest.param(lambda t, blocks: best_response(
                     boundary_game(t), 1, ZERO, np.zeros(2)),
                 SingularBestResponse, id="best_response"),
    pytest.param(lambda t, blocks: analysis.social_optimum(social_boundary_game(t)),
                 SingularSocialSystem, id="social_optimum"),
]


@pytest.mark.parametrize("call, error", BOUNDARY_SITES)
def test_rcond_min_boundary(rng, call, error):
    """Each guarded solve raises at rcond 0.5 RCOND_MIN and returns at 2 RCOND_MIN."""
    blocks = assemble_blocks(random_dense_game(rng, 2, 2))
    for t in (0.5 * RCOND_MIN, 2.0 * RCOND_MIN):
        assert _lu_rcond(diag_rcond(t))[2] == t
    with pytest.raises(error):
        call(0.5 * RCOND_MIN, blocks)
    call(2.0 * RCOND_MIN, blocks)


@pytest.mark.parametrize("sign, posdef", [(1.0, True), (-1.0, False)],
                         ids=["cholesky", "lu"])
def test_sym_solve_rcond_min_boundary(sign, posdef):
    """Both branches of the symmetric solve raise at 0.5 RCOND_MIN and solve at 2 RCOND_MIN.

    diag(1, t) takes the Cholesky branch (dpocon decides), diag(-1, t) the LU.
    """
    b = np.array([1.0, 1.0])
    for t in (0.5 * RCOND_MIN, 2.0 * RCOND_MIN):
        assert (lapack.dpotrf(np.diag([sign, t]))[1] == 0) == posdef
    with pytest.raises(SingularBestResponse):
        _solve_sym_checked(np.diag([sign, 0.5 * RCOND_MIN]), b, SingularBestResponse, 1)
    t = 2.0 * RCOND_MIN
    x, flag = _solve_sym_checked(np.diag([sign, t]), b, SingularBestResponse, 1)
    assert flag is posdef
    assert np.array_equal(x, [sign, 1.0 / t])


def test_sym_solve_is_cholesky_factor_then_solve_bit_for_bit():
    """dposv gives what dpotrf and then dpotrs give, bit for bit, on the
    effective Hessians of the pool's iterations and their best-response
    right-hand sides; an indefinite S_i takes _solve_checked's LU."""
    posdef = 0
    for g in uniform_pool(60):
        trace = iterate(g, IterationConfig(max_iters=5))
        for st in trace.steps:
            for i, L, ell in ((1, st.L1, st.ell1), (2, st.L2, st.ell2)):
                s = core._checked_slope(g, i, L)
                S, b = analysis._effective_hessian(s), s.c + s.Q.T @ ell
                x, flag = _solve_sym_checked(S, b, SingularBestResponse, i)
                c, info = lapack.dpotrf(S)
                assert flag is (info == 0)
                oracle = (lapack.dpotrs(c, b)[0] if info == 0
                          else _solve_checked(S, b, SingularBestResponse, i))
                assert np.array_equal(x, oracle)
                posdef += flag
    assert posdef > 100


def with_nan(m):
    """Copy of ``m`` with a NaN as its first entry."""
    m = m.copy()
    m.flat[0] = np.nan
    return m


def nan_in_b1(game):
    """Copy of ``game`` with a NaN in B1, made past QuadraticGame.create's
    finiteness check: M1 holds the NaN, A1 and A2 do not."""
    return game._replace(p1=game.p1._replace(B=with_nan(game.p1.B)))


NAN_SITES = [
    # dgecon's estimate on [[1, nan], [0, 1]] is NaN.
    pytest.param(lambda g, sol, blocks: _solve_checked(
                     np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2),
                     SingularBestResponse, 1),
                 SingularBestResponse, id="solve_checked"),
    # dpotrf reads the upper triangle of [[1, 0], [nan, 1]] and factors it;
    # the 1-norm is NaN, and so is dpocon's estimate.
    pytest.param(lambda g, sol, blocks: _solve_sym_checked(
                     np.array([[1.0, 0.0], [np.nan, 1.0]]), np.ones(2),
                     SingularBestResponse, 1),
                 SingularBestResponse, id="solve_sym_checked"),
    pytest.param(lambda g, sol, blocks: validate_game(nan_in_b1(g)),
                 MSingular, id="factor_m"),
    # A NaN in bC1 makes player 2's bA1 - L2 bC1 and bC1 L2 + bD1 NaN;
    # H1, H1' and H1's alternate form do not read bC1.
    pytest.param(lambda g, sol, blocks: stability.perturbation_spectrum(
                     planted_bold(blocks, "bC1", with_nan(blocks.bold_blocks()[2])),
                     2, sol.L2),
                 SingularComposite, id="perturbation_spectrum"),
    pytest.param(lambda g, sol, blocks: stability.certify(
                     planted_bold(blocks, "bC1", with_nan(blocks.bold_blocks()[2])),
                     g, sol.L1, sol.L2),
                 SingularComposite, id="certify"),
]


@pytest.mark.parametrize("call, error", NAN_SITES)
def test_nan_rcond_estimate_raises(bench_game, call, error):
    """A NaN condition estimate fails its guard: it is not above any threshold."""
    sol = equilibrium.solve_ccve(bench_game)
    with pytest.raises(error):
        call(bench_game, sol, assemble_blocks(bench_game))


NAN_FIXED_POINT_SITES = [
    # H1 = bA1 + bB1 L1 is NaN, and so is its distance to the alternate form.
    pytest.param(lambda g, blocks: (g, planted_bold(blocks, "bA1", with_nan(
                     blocks.bold_blocks()[0]))), "alternate form", id="bA1"),
    # A NaN A2 makes the residual R2 and its scale ||A2|| NaN; H1's
    # alternate form and the K and J guards read neither.
    pytest.param(lambda g, blocks: (g._replace(p2=g.p2._replace(A=with_nan(g.p2.A))),
                                    blocks), "residuals", id="A2"),
]


@pytest.mark.parametrize("plant, match", NAN_FIXED_POINT_SITES)
def test_nan_is_not_a_fixed_point(bench_game, plant, match):
    """A NaN residual or H1 fails certify's fixed-point tests instead of passing them."""
    sol = equilibrium.solve_ccve(bench_game)
    game, blocks = plant(bench_game, assemble_blocks(bench_game))
    with pytest.raises(NotAFixedPoint, match=match):
        stability.certify(blocks, game, sol.L1, sol.L2)


def failing_dgees(select, a, lwork=None):
    """dgees's outputs with info = 1 (the QR algorithm did not converge)."""
    n = a.shape[0]
    return a, 0, np.zeros(n), np.zeros(n), np.eye(n), np.array([3.0 * n]), 1


def failing_dgges(select, a, b, lwork=None, jobvsl=1):
    """dgges's outputs with info = 1 (the QZ iteration did not converge); the
    route passes jobvsl=0, and vsl is then 1 x n."""
    n = a.shape[0]
    return (a, b, 0, np.ones(n), np.zeros(n), np.ones(n), np.eye(n if jobvsl else 1, n),
            np.eye(n), np.array([8.0 * n + 16]), 1)


def failing_dsyevr(a, **options):
    """dsyevr's outputs with info = 1 (an internal error in the eigenvalue search)."""
    return np.zeros(a.shape[0]), np.zeros((0, 0)), 0, np.zeros(0, np.int32), 1


# A 1x1 game whose A1 = 5e-11 fails the Cholesky test, so dsyevr decides.
SMALL_A1 = QuadraticGame.create(1, 1, ([[5e-11]], [[0.0]], [[1.0]], [0.0], [0.0]),
                                ([[1.0]], [[0.2]], [[1.0]], [0.0], [0.0]))

LAPACK_FAILURES = [
    pytest.param("dgees", failing_dgees, lambda g, sol: spectral.invariant_subspace(
                     assemble_blocks(g).boldM1, 2, spectral.LargestMagnitude),
                 id="dgees-invariant_subspace"),
    pytest.param("dgees", failing_dgees, lambda g, sol: equilibrium.solve_ccve(g),
                 id="dgees-solve_ccve"),
    pytest.param("dgges", failing_dgges, lambda g, sol: spectral.generalized_pairs(
                     assemble_blocks(g).M1, assemble_blocks(g).M2.T, 2,
                     spectral.LargestMagnitude),
                 id="dgges-generalized_pairs"),
    pytest.param("dgges", failing_dgges,
                 lambda g, sol: equilibrium.solve_via_generalized(g),
                 id="dgges-solve_via_generalized"),
    pytest.param("dsyevr", failing_dsyevr,
                 lambda g, sol: analysis.second_order_check(g, sol.L1, sol.L2),
                 id="dsyevr-second_order_check"),
    pytest.param("dsyevr", failing_dsyevr, lambda g, sol: validate_game(SMALL_A1),
                 id="dsyevr-factor_m"),
]


@pytest.mark.parametrize("kernel, fake, call", LAPACK_FAILURES)
def test_lapack_failure_is_typed(monkeypatch, bench_game, kernel, fake, call):
    """A LAPACK eigenvalue kernel reporting info != 0 raises EigFailure."""
    sol = equilibrium.solve_ccve(bench_game)
    monkeypatch.setattr(core.lapack, kernel, fake)
    with pytest.raises(EigFailure, match=f"{kernel} failed with info=1"):
        call(bench_game, sol)


def wrong_shape(L):
    return np.zeros((L.shape[0] + 1, L.shape[1]))


PUBLIC_SLOPE_CALLS = [
    pytest.param(lambda g, L1, L2: lft_cross(g, 1, L1), id="lft_cross"),
    pytest.param(lambda g, L1, L2: offset_cross(g, 1, L1), id="offset_cross"),
    pytest.param(lambda g, L1, L2: analysis.second_order_check(g, L1, L2),
                 id="second_order_check"),
    pytest.param(lambda g, L1, L2: composite_step(assemble_blocks(g), 1, L1),
                 id="composite_step"),
    pytest.param(lambda g, L1, L2: stability.perturbation_spectrum(
                     assemble_blocks(g), 1, L1), id="perturbation_spectrum"),
]


@pytest.mark.parametrize("bad", [wrong_shape, with_nan], ids=["shape", "nan"])
@pytest.mark.parametrize("call", PUBLIC_SLOPE_CALLS)
def test_public_slope_is_checked(bench_game, call, bad):
    """A public function given a wrong-shape or NaN slope raises DimensionMismatch."""
    L1 = bad(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch, match="L1"):
        call(bench_game, L1, np.zeros((2, 3)))


# (player, L, ell): the slope and offset of a 2x1 game's player 1, and
# conjectures of the 2x3 game with a NaN entry or a short offset.
BAD_CONJECTURES = [
    pytest.param(1, [[0.1, 0.2]], [0.1], "L1 must have shape", id="other-game"),
    pytest.param(1, np.full((3, 2), np.nan), np.zeros(3),
                 "L1 contains non-finite", id="nan-slope"),
    pytest.param(1, np.zeros((3, 2)), np.zeros(2),
                 "ell1 must have length 3", id="offset-length"),
    pytest.param(2, np.zeros((2, 3)), [np.nan, 0.0],
                 "ell2 contains non-finite", id="nan-offset"),
]


@pytest.mark.parametrize("player, L, ell, match", BAD_CONJECTURES)
def test_best_response_checks_its_conjecture(bench_game, player, L, ell, match):
    """A conjecture that does not fit the game raises DimensionMismatch."""
    with pytest.raises(DimensionMismatch, match=match):
        best_response(bench_game, player, L, ell)


def rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def test_indefinite_best_response_warns_and_solves():
    """A well-conditioned indefinite S_1 takes the LU, warns and matches numpy."""
    rng = np.random.default_rng(5)
    # A1 = I, B1 = 0, D1 = -2 I; at L1 = diag(1, 0, 1) S_1 = diag(-1, 1, -1).
    A1, D1 = np.eye(3), -2.0 * np.eye(3)
    p1 = (A1, np.zeros((3, 3)), D1, rng.standard_normal(3), rng.standard_normal(3))
    p2 = (np.eye(3), np.zeros((3, 3)), np.eye(3), np.zeros(3), np.zeros(3))
    g = QuadraticGame.create(3, 3, p1, p2)
    L, ell = np.diag([1.0, 0.0, 1.0]), rng.standard_normal(3)
    S = A1 + L.T @ D1 @ L
    with pytest.warns(UserWarning, match="NotCertifiedMin"):
        x = best_response(g, 1, L, ell)
    ref = -np.linalg.solve(S, p1[3] + L.T @ p1[4] + (L.T @ D1) @ ell)
    assert rel(x, ref) < 1e-14


@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
# A few draws have an indefinite S_i or sym(M1 + M2); the solve is still checked.
@pytest.mark.filterwarnings("ignore:NotCertifiedMin")
def test_lu_solves_match_numpy(seed, d1, d2):
    """On well-conditioned games every guarded solve matches np.linalg.solve."""
    rng = np.random.default_rng(seed)
    g = random_dense_game(rng, d1, d2)
    scale = 0.3 / np.sqrt(max(d1, d2))
    L1 = scale * rng.standard_normal((d2, d1))
    L2 = scale * rng.standard_normal((d1, d2))
    ell1, ell2 = rng.standard_normal(d2), rng.standard_normal(d1)
    p1, p2 = g.p1, g.p2
    M1, M2 = stacked_m1(g), stacked_m2(g)
    K_nash = np.block([[p1.A, p1.B.T], [p2.B.T, p2.A]])
    K_act = np.eye(d1) - L2 @ L1
    H_social = 0.5 * ((M1 + M2) + (M1 + M2).T)
    assume(max(np.linalg.cond(m) for m in (M1, M2, K_nash, K_act, H_social)) < 1e3)
    blocks = assemble_blocks(g)

    assert rel(blocks.boldM1, np.linalg.solve(M2.T, M1)) < 1e-12

    bA, bB, bC, bD = blocks.bold_blocks()
    for i, L, ell in ((1, L1, ell1), (2, L2, ell2)):
        p = g.player(i)
        lhs = (p.A + p.B.T @ L).T
        # composite_step solves X (bA1 + bB1 L1) = bC1 + bD1 L1 for player 1
        # and (bA1 - L2 bC1) X = L2 bD1 - bB1 for player 2.
        den = bA + bB @ L if i == 1 else bA - L @ bC
        S = p.A + L.T @ p.B + p.B.T @ L + L.T @ p.D @ L
        assume(max(np.linalg.cond(m) for m in (lhs, den, S)) < 1e3)
        ref = -np.linalg.solve(lhs, p.B.T + L.T @ p.D.T)
        assert rel(lft_cross(g, i, L), ref) < 1e-12
        ref = -np.linalg.solve(lhs, p.a + L.T @ p.b)
        assert rel(offset_cross(g, i, L), ref) < 1e-12
        if i == 1:
            ref = np.linalg.solve(den.T, (bC + bD @ L).T).T
        else:
            ref = np.linalg.solve(den, L @ bD - bB)
        assert rel(composite_step(blocks, i, L), ref) < 1e-12
        ref = -np.linalg.solve(S, p.a + L.T @ p.b + (p.B.T + L.T @ p.D) @ ell)
        assert rel(best_response(g, i, L, ell), ref) < 1e-12

    z = np.linalg.solve(K_nash, -np.concatenate([p1.a, p2.a]))
    x1, x2 = analysis.nash(g)
    assert rel(np.concatenate([x1, x2]), z) < 1e-12

    ref1 = np.linalg.solve(K_act, L2 @ ell1 + ell2)
    x1, x2 = equilibrium._solve_actions(L1, ell1, L2, ell2)
    assert rel(x1, ref1) < 1e-12
    assert rel(x2, L1 @ ref1 + ell1) < 1e-12

    z = np.linalg.solve(H_social, -np.concatenate([p1.a + p2.b, p1.b + p2.a]))
    x1, x2, _ = analysis.social_optimum(g)
    assert rel(np.concatenate([x1, x2]), z) < 1e-12
