"""Numerical guards: one factorization + 1-norm condition estimate per solve.

Each guard factors its matrix once (LAPACK dgetrf), compares dgecon's 1-norm
reciprocal-condition estimate with its threshold, and solves with the same
LU.  The symmetric systems of best_response and social_optimum factor once
too: a Cholesky (dpotrf) flags definiteness and, when it succeeds, solves
(dpotrs) once dpocon's estimate passes RCOND_MIN; only when it fails do they
take the LU.  Near-singular inputs must still raise the site's typed error,
and well-conditioned inputs must give the same answers as
``np.linalg.solve``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from ccve import analysis, equilibrium, spectral, stability
from ccve.core import (
    RCOND_MIN,
    RCOND_SINGULAR,
    Conjecture,
    QuadraticGame,
    _lu_rcond,
    _solve_sym_checked,
    assemble_blocks,
    stacked_m1,
    stacked_m2,
    validate_game,
)
from ccve.errors import (
    MSingular,
    SingularActionSystem,
    SingularBestResponse,
    SingularComposite,
    SingularNashSystem,
    SingularSocialSystem,
    SubspaceNotGraph,
)
from ccve.lft import best_response, composite_step, lft_cross, offset_cross

from conftest import random_dense_game

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


def planted_bold(blocks, player, a):
    """Copy of ``blocks`` whose boldM_player has ``a`` as its bA block.

    bA1 is the leading d1 x d1 block of boldM1, bA2 the trailing d2 x d2
    block of boldM2.
    """
    d1 = blocks.dims.d1
    name, span = ("boldM1", slice(None, d1)) if player == 1 else ("boldM2", slice(d1, None))
    m = getattr(blocks, name).copy()
    m[span, span] = a
    return dataclasses.replace(blocks, **{name: m})


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
            best_response(g, player, Conjecture(player, zero, np.zeros(3)))

    @pytest.mark.parametrize("player", [1, 2])
    def test_singular_composite(self, rng, player):
        blocks = assemble_blocks(random_dense_game(rng, 3, 3))
        blocks = planted_bold(blocks, player, planted(rng, 3))
        zero = np.zeros((3, 3))
        # At L = 0 the composite denominator bA + bB L is bA itself.
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
            equilibrium.solve_actions(L1, np.zeros(n), L2, np.zeros(n))

    def test_subspace_not_graph(self, rng):
        g = random_dense_game(rng, 3, 3)
        blocks = assemble_blocks(g)
        sub = spectral.invariant_subspace(blocks.boldM1, 3, spectral.LargestMagnitude)
        basis = sub.basis.copy()
        basis[:3] = planted(rng, 3)  # Y1, the top d1 rows
        sub = dataclasses.replace(sub, basis=basis)
        with pytest.raises(SubspaceNotGraph):
            equilibrium._solution_from_subspace(g, blocks, sub, "planted")


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
                     planted_bold(blocks, 1, diag_rcond(t)), 1, ZERO),
                 SingularComposite, id="composite_step"),
    pytest.param(lambda t, blocks: stability.perturbation_spectrum(
                     planted_bold(blocks, 1, diag_rcond(t)), 1, ZERO),
                 SingularComposite, id="perturbation_spectrum"),
    # I - L2 L1 = diag(1, 1 - (1 - t)): t up to a rounding of about 1%.
    pytest.param(lambda t, blocks: equilibrium.solve_actions(
                     np.diag([0.0, 1.0]), np.zeros(2),
                     np.diag([0.0, 1.0 - t]), np.zeros(2)),
                 SingularActionSystem, id="solve_actions"),
    pytest.param(lambda t, blocks: analysis.nash(boundary_game(t)),
                 SingularNashSystem, id="nash"),
    # At L = 0 the effective Hessian S_1 is A1 = diag(1, t).
    pytest.param(lambda t, blocks: best_response(
                     boundary_game(t), 1, Conjecture(1, ZERO, np.zeros(2))),
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
        x = best_response(g, 1, Conjecture(1, L, ell))
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
    assert rel(blocks.boldM2, np.linalg.solve(M1.T, M2)) < 1e-12

    for i, L, ell in ((1, L1, ell1), (2, L2, ell2)):
        p = g.player(i)
        lhs = (p.A + p.B.T @ L).T
        bA, bB, bC, bD = blocks.bold_blocks(i)
        den = bA + bB @ L
        S = p.A + L.T @ p.B + p.B.T @ L + L.T @ p.D @ L
        assume(max(np.linalg.cond(m) for m in (lhs, den, S)) < 1e3)
        ref = -np.linalg.solve(lhs, p.B.T + L.T @ p.D.T)
        assert rel(lft_cross(g, i, L), ref) < 1e-12
        ref = -np.linalg.solve(lhs, p.a + L.T @ p.b)
        assert rel(offset_cross(g, i, L), ref) < 1e-12
        ref = np.linalg.solve(den.T, (bC + bD @ L).T).T
        assert rel(composite_step(blocks, i, L), ref) < 1e-12
        ref = -np.linalg.solve(S, p.a + L.T @ p.b + (p.B.T + L.T @ p.D) @ ell)
        assert rel(best_response(g, i, Conjecture(i, L, ell)), ref) < 1e-12

    z = np.linalg.solve(K_nash, -np.concatenate([p1.a, p2.a]))
    x1, x2 = analysis.nash(g)
    assert rel(np.concatenate([x1, x2]), z) < 1e-12

    ref1 = np.linalg.solve(K_act, L2 @ ell1 + ell2)
    x1, x2 = equilibrium.solve_actions(L1, ell1, L2, ell2)
    assert rel(x1, ref1) < 1e-12
    assert rel(x2, L1 @ ref1 + ell1) < 1e-12

    z = np.linalg.solve(H_social, -np.concatenate([p1.a + p2.b, p1.b + p2.a]))
    x1, x2, _ = analysis.social_optimum(g)
    assert rel(np.concatenate([x1, x2]), z) < 1e-12
