"""The hot products written as ``a.dot(b)`` are bit for bit their ``a @ b``
formulas, on the operand layouts the package hands them: C-ordered,
F-ordered, and the ``X[:, :-1]`` view of an F-ordered solve that
core._cross_offset returns. ``@`` dispatches through numpy's matmul gufunc,
which costs about twice what ``ndarray.dot`` does on a small game; both make
the same BLAS call on these layouts. A block view of an F-ordered LAPACK
output (boldM1's blocks, a trsen T_kk) is copied by ``ndarray.dot`` and
keeps ``@``: there the two differ in the last bits.

The guarded solves are pinned the same way, at one BLAS thread (conftest):
core._solve_checked's one dgesv gives what dgetrf and then dgetrs give, and
each helper that hands LAPACK an exactly symmetric matrix as its transpose
gives the bits of the LAPACK call on the C-ordered matrix itself."""

import itertools

import numpy as np
import pytest

from ccve import analysis, builders, core, equilibrium, lft
from ccve.core import lapack
from ccve.errors import SingularActionSystem, SingularBestResponse

SIZES = [(1, 1), (2, 3), (12, 15), (50, 60)]
LAYOUTS = ["C", "F", "view"]


def laid_out(m, layout):
    """``m`` as a C-ordered or F-ordered array, or as the leading columns of
    an F-ordered array one column wider, as core._cross_offset returns them."""
    if layout == "C":
        return np.ascontiguousarray(m)
    if layout == "F":
        return np.asfortranarray(m)
    wide = np.asfortranarray(np.column_stack((m, np.ones(m.shape[0]))))
    return wide[:, :-1]


def operands(d1, d2, layout, seed=0):
    """A paper7ex2 game of d1 x d2 and slopes L1, L2 and offsets ell1, ell2
    drawn small enough that every system below is well conditioned."""
    rng = np.random.default_rng(seed)
    game = builders.random_game(d1, d2, "paper7ex2", seed)
    L1 = laid_out(0.1 * rng.standard_normal((d2, d1)), layout)
    L2 = laid_out(0.1 * rng.standard_normal((d1, d2)), layout)
    return game, L1, L2, rng.standard_normal(d2), rng.standard_normal(d1)


def slopes(game, L1, L2):
    return (core._slope_terms(core._cost_rows(game.p1), L1),
            core._slope_terms(core._cost_rows(game.p2), L2))


@pytest.fixture(params=list(itertools.product(SIZES, LAYOUTS)),
                ids=lambda p: f"{p[0][0]}x{p[0][1]}-{p[1]}")
def case(request):
    (d1, d2), layout = request.param
    return operands(d1, d2, layout)


def test_slope_terms(case):
    game, L1, L2, _, _ = case
    for p, s in zip((game.p1, game.p2), slopes(game, L1, L2)):
        own, opp = core._cost_rows(p)
        terms = own + opp @ s.L
        n = s.L.shape[1]
        assert np.array_equal(s.P, terms[:n])
        assert np.array_equal(s.Q, terms[n:-1])
        assert np.array_equal(s.c, terms[-1])


def test_residuals(case):
    game, L1, L2, _, _ = case
    s1, s2 = slopes(game, L1, L2)
    r1, r2 = core._residuals(s1, s2)
    assert np.array_equal(r1, s2.L.T @ s1.P + s1.Q)
    assert np.array_equal(r2, s1.L.T @ s2.P + s2.Q)


def test_effective_hessian(case):
    game, L1, L2, _, _ = case
    for s in slopes(game, L1, L2):
        S = s.L.T @ s.Q + s.P
        assert np.array_equal(analysis._effective_hessian(s), 0.5 * (S + S.T))


def test_best_response(case):
    game, L1, L2, ell1, ell2 = case
    for i, s, ell in zip((1, 2), slopes(game, L1, L2), (ell1, ell2)):
        x, posdef = lft._best_response(i, s, ell)
        want, want_posdef = core._solve_sym_checked(
            analysis._effective_hessian(s), s.Q.T @ ell + s.c, SingularBestResponse, i)
        assert np.array_equal(x, -want) and posdef == want_posdef


def test_solve_actions(case):
    _, L1, L2, ell1, ell2 = case
    x1, x2 = equilibrium._solve_actions(L1, ell1, L2, ell2)
    K = np.eye(L1.shape[1]) - L2 @ L1
    want = core._solve_checked(K, L2 @ ell1 + ell2, SingularActionSystem, "")
    assert np.array_equal(x1, want)
    assert np.array_equal(x2, L1 @ want + ell1)


@pytest.mark.parametrize("left, right", list(itertools.product(LAYOUTS, repeat=2)))
@pytest.mark.parametrize("d1, d2", SIZES)
def test_dot_is_matmul_on_each_layout(d1, d2, left, right):
    """The layouts of the products that only feed a check: stability._certify's
    B2 L1, the invariance residual's M Q_k and the deflation check's M1 Z_k,
    M2^T Z_k, W^T X and W (W^T X). Each is a matrix or its transpose in one of
    these layouts, times a matrix or a vector."""
    rng = np.random.default_rng(d1 + d2)
    a = laid_out(rng.standard_normal((d2, d1)), left)
    b = laid_out(rng.standard_normal((d1, d2)), right)
    for x, y in ((a, b), (b, a), (a.T, a), (b, b.T), (a, b[:, 0]), (b.T, b[:, 0])):
        assert np.array_equal(x.dot(y), x @ y)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("d1, d2", SIZES)
def test_solve_checked_is_getrf_then_getrs(d1, d2, layout):
    """On each player's P^T of a slope, with the matrix [Q^T | c] and with
    the vector c as the right-hand side, as core._cross_offset and
    core._offset solve them."""
    game, L1, L2, _, _ = operands(d1, d2, "C")
    for s in slopes(game, L1, L2):
        a = laid_out(s.P.T, layout)
        for b in (laid_out(s.Qc.T, layout), s.c):
            lu, piv, info = lapack.dgetrf(a)
            assert info == 0
            want = lapack.dgetrs(lu, piv, b)[0]
            assert np.array_equal(core._solve_checked(a, b, SingularBestResponse, 1), want)


def symmetric_operands(d1, d2):
    """Exactly symmetric C-ordered matrices of each kind the package hands
    LAPACK as its transpose: the stacked M_1 and M_2, each A_i, the effective
    Hessians S_i and their negatives (no Cholesky factor: the LU fallback),
    and sym(M1 + M2)."""
    game, L1, L2, _, _ = operands(d1, d2, "C")
    M1, M2 = core.stacked_m1(game), core.stacked_m2(game)
    S = [analysis._effective_hessian(s) for s in slopes(game, L1, L2)]
    M = M1 + M2
    mats = [M1, M2, game.p1.A, game.p2.A, *S, *(-m for m in S), 0.5 * (M + M.T)]
    assert all(np.array_equal(m, m.T) and m.flags.c_contiguous for m in mats)
    return mats


@pytest.mark.parametrize("d1, d2", SIZES)
def test_symmetric_operands_give_the_bits_of_the_c_ordered_matrix(d1, d2):
    """_solve_sym_checked, _posdef, _min_eig and _lu_rcond on each layout of
    an exactly symmetric matrix and on its transpose equal the LAPACK calls
    on the C-ordered matrix: dposv (dgetrf and dgetrs when it fails),
    dpotrf, dsyevr on the lower triangle, and dgetrf with dgecon."""
    b = np.random.default_rng(d1 + d2).standard_normal(d1 + d2)
    fallbacks = 0
    for m in symmetric_operands(d1, d2):
        n = m.shape[0]
        _, x, info = lapack.dposv(m, b[:n])
        fallbacks += info != 0
        lu, piv, _ = lapack.dgetrf(m)
        rcond = lapack.dgecon(lu, lapack.dlange("1", m))[0]
        if info != 0:
            x = lapack.dgetrs(lu, piv, b[:n])[0]
        eig = lapack.dsyevr(m, compute_v=0, range="I", il=1, iu=1, lower=1)[0][0]
        posdef = lapack.dpotrf(m)[1] == 0
        for a in (*(laid_out(m, layout) for layout in LAYOUTS), m.T):
            got, flag = core._solve_sym_checked(a, b[:n], SingularBestResponse, 1)
            assert np.array_equal(got, x) and flag is (info == 0)
            assert core._posdef(a) is posdef
            assert core._min_eig(a) == eig
            got_lu, got_piv, got_rcond, _ = core._lu_rcond(a)
            assert np.array_equal(got_lu, lu) and np.array_equal(got_piv, piv)
            assert got_rcond == rcond
    assert fallbacks >= 2
