"""The QZ route selects its deflating subspace by position, not by value.

It must return the subspace of exactly the selected eigenvalues, however close
their neighbours, agree with the Schur route, and reorder the pencil bit for
bit as scipy.linalg.ordqz does: the route calls LAPACK dgges and dtgsen
itself, and ordqz stays here as the oracle.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from ccve import spectral
from ccve.builders import example1_game
from ccve.core import RCOND_SINGULAR
from ccve.equilibrium import solve_ccve, solve_via_generalized
from ccve.errors import ConjugatePairSplit, EigFailure
from ccve.spectral import (
    Indices,
    LargestMagnitude,
    SmallestMagnitude,
    generalized_pairs,
    invariant_subspace,
)


def test_close_eigenvalues_give_the_selected_eigenvector():
    # 1 and 1 + 5e-7 are separated by more than GAP_TOL, so the selection is
    # well defined: the largest eigenvalue 1 + 5e-7 has eigenvector e2.
    M = np.diag([1.0, 1.0 + 5e-7, 0.3])
    sub = generalized_pairs(M, np.eye(3), 1, LargestMagnitude)
    assert sub.eigenvalues[0] == 1.0 + 5e-7
    assert sub.warnings == ()
    assert abs(abs(sub.basis[1, 0]) - 1.0) < 1e-12
    direct = invariant_subspace(M, 1, LargestMagnitude)
    assert np.max(sla.subspace_angles(sub.basis, direct.basis)) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_matches_schur_route_for_every_accepted_k(seed, n):
    rng = np.random.default_rng(seed)
    M1 = rng.standard_normal((n, n))
    M2T = rng.standard_normal((n, n)) + n * np.eye(n)
    bold = np.linalg.solve(M2T, M1)
    for selection in (LargestMagnitude, SmallestMagnitude):
        for k in range(1, n):
            try:
                direct = invariant_subspace(bold, k, selection)
            except ConjugatePairSplit:
                continue
            sub = generalized_pairs(M1, M2T, k, selection)
            ev = sub.eigenvalues
            assert np.array_equal(np.sort_complex(ev), np.sort_complex(ev.conj()))
            assert np.max(sla.subspace_angles(sub.basis, direct.basis)) < 1e-8


def ordqz_oracle(M1, M2T, k, selection):
    """scipy.linalg.ordqz's (AA, BB, Z), the selection picked from its
    unordered form as the QZ route resolves it; the route does not form Q."""
    def pick(alpha, beta):
        values = alpha / beta
        pairs = np.nonzero(alpha.imag > 0)[0]
        values[pairs + 1] = np.conj(values[pairs])
        return spectral._select_positions(values, k, selection)[0]

    AA, BB, _, _, _, Z = sla.ordqz(M1, M2T, sort=pick, output="real")
    return AA, BB, Z


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_ordered_form_is_ordqz_bit_for_bit(seed, n):
    rng = np.random.default_rng(seed)
    M1 = rng.standard_normal((n, n))
    M2T = rng.standard_normal((n, n)) + n * np.eye(n)
    dtgsen = lapack.dtgsen
    forms = []

    def spy(*args, **kwargs):
        out = dtgsen(*args, **kwargs)
        forms.append(tuple(out[i].copy() for i in (0, 1, 6)))
        return out

    def spied_pairs(k, selection):
        # The spy is installed around the route alone: ordqz calls dtgsen
        # through the same LAPACK module object.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectral.lapack, "dtgsen", spy)
            return generalized_pairs(M1, M2T, k, selection)

    for selection in (LargestMagnitude, SmallestMagnitude):
        for k in range(1, n):
            try:
                oracle = ordqz_oracle(M1, M2T, k, selection)
            except ConjugatePairSplit:
                with pytest.raises(ConjugatePairSplit):
                    spied_pairs(k, selection)
                continue
            sub = spied_pairs(k, selection)
            assert all(bitwise_equal(a, b) for a, b in zip(forms.pop(), oracle))
            assert bitwise_equal(sub.basis, np.ascontiguousarray(oracle[2][:, :k]))
    assert forms == []


def refusing_dtgsen(select, a, b, q, z, **options):
    """dtgsen's outputs with info = 1: a swap it cannot make stably, e.g. in
    the smallest selection of the uniform 1x6 game with seed 70, whose boldM1
    has the eigenvalue -1/65 five times."""
    n = a.shape[0]
    zeros = np.zeros(n)
    return a, b, zeros, zeros, zeros, q, z, 0, 0.0, 0.0, np.zeros(2), 1


def test_refused_reorder_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(spectral.lapack, "dtgsen", refusing_dtgsen)
    with pytest.raises(EigFailure, match=r"ordered QZ failed: Reordering of \(A, B\)"):
        generalized_pairs(np.diag([2.0, 1.0]), np.eye(2), 1, LargestMagnitude)


def planted(plant):
    """dtgsen whose reordered Z is plant(Z), on a copy."""
    real_dtgsen = lapack.dtgsen

    def dtgsen(*args, **kwargs):
        out = list(real_dtgsen(*args, **kwargs))
        out[6] = plant(out[6].copy())
        return tuple(out)
    return dtgsen


def symmetric_pencil():
    """M1 symmetric, M2^T positive definite: real eigenvalues."""
    rng = np.random.default_rng(7)
    M1 = rng.standard_normal((4, 4))
    return M1 + M1.T, np.eye(4) + 0.1 * np.diag(rng.random(4))


def test_non_deflating_basis_is_rejected(monkeypatch):
    # A rotation between a selected and an unselected column of Z keeps the
    # basis orthonormal but makes its span no deflating subspace of the
    # pencil (M1 symmetric, M2^T positive definite: real eigenvalues).
    def rotated(Z):
        Z[:, [1, 2]] = Z[:, [1, 2]] @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
        return Z

    M1, M2T = symmetric_pencil()
    generalized_pairs(M1, M2T, 2, LargestMagnitude)
    monkeypatch.setattr(spectral.lapack, "dtgsen", planted(rotated))
    with pytest.raises(EigFailure, match="deflating-subspace residual"):
        generalized_pairs(M1, M2T, 2, LargestMagnitude)


def moved(column):
    """A plant that moves Z's ``column`` by 1e-6 of its unit length toward the next."""
    def plant(Z):
        Z[:, column] += 1e-6 * Z[:, column + 1]
        return Z
    return plant


def test_slightly_moved_basis_is_rejected(monkeypatch):
    # The last selected column moved toward the first unselected one: the
    # residual reads 4.0e-7 here, against EIG_RESID_TOL 1e-8.
    M1, M2T = symmetric_pencil()
    monkeypatch.setattr(spectral.lapack, "dtgsen", planted(moved(1)))
    with pytest.raises(EigFailure, match="deflating-subspace residual"):
        generalized_pairs(M1, M2T, 2, LargestMagnitude)


def test_route_forms_no_left_transform(monkeypatch):
    # Nothing reads Q: dgges (its lwork query too) is asked for jobvsl=0 and
    # dtgsen for wantq=0.
    asked = []

    def spy(name):
        kernel = getattr(lapack, name)

        def call(*args, **options):
            asked.append((name, options.get("jobvsl", options.get("wantq"))))
            return kernel(*args, **options)
        return call

    for name in ("dgges", "dtgsen"):
        monkeypatch.setattr(spectral.lapack, name, spy(name))
    solve_via_generalized(example1_game())
    assert asked == [("dgges", 0), ("dgges", 0), ("dtgsen", 0)]


def near_singular_pencil(seed, n=6):
    """(M1, M2^T): M1 standard normal, M2^T with singular values from 1 to 1e-11."""
    rng = np.random.default_rng(seed)
    U, V = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
    return rng.standard_normal((n, n)), U @ np.diag(np.logspace(0, -11, n)) @ V.T


@pytest.mark.parametrize("seed", range(4))
def test_near_singular_m2_is_solved_by_both_routes(seed):
    # M2^T's 1-norm rcond near 5e-12 is above RCOND_SINGULAR, and |lambda|
    # spans 3e9 to 2e10. The deflation check must not amplify rounding by the
    # largest |lambda|, which the largest selection picks: the span of
    # M2^T Z_k alone, like Lambda = BB_kk^{-1} AA_kk, reads residuals far
    # above EIG_RESID_TOL here.
    M1, M2T = near_singular_pencil(seed)
    assert RCOND_SINGULAR < 1 / np.linalg.cond(M2T, 1) < 1e-11
    bold = np.linalg.solve(M2T, M1)
    magnitudes = np.abs(np.linalg.eigvals(bold))
    assert magnitudes.max() / magnitudes.min() > 2e9
    solved = 0
    for k in range(1, len(M1)):
        try:
            direct = invariant_subspace(bold, k, LargestMagnitude)
        except ConjugatePairSplit:
            continue
        sub = generalized_pairs(M1, M2T, k, LargestMagnitude)
        assert np.max(sla.subspace_angles(sub.basis, direct.basis)) < 1e-5
        solved += 1
    assert solved >= 4


def test_moved_basis_of_a_near_singular_pencil_is_rejected(monkeypatch):
    # At large |lambda| the QR's basis W is nearly the span of M1 Z_k, so
    # the move shows in M2^T Z_k: the residual reads 3.8e-7 there and 6.4e-11
    # in M1 Z_k here. Both spans are checked.
    M1, M2T = near_singular_pencil(0)
    generalized_pairs(M1, M2T, 4, LargestMagnitude)
    monkeypatch.setattr(spectral.lapack, "dtgsen", planted(moved(3)))
    with pytest.raises(EigFailure, match="deflating-subspace residual"):
        generalized_pairs(M1, M2T, 4, LargestMagnitude)


def test_reorder_of_the_wrong_dimension_is_rejected(monkeypatch):
    # A mask with one position fewer than k: dtgsen reorders k - 1 values.
    select = spectral._select_positions

    def short(values, k, selection):
        inside, *rest = select(values, k, selection)
        inside[np.nonzero(inside)[0][-1]] = False
        return (inside, *rest)

    monkeypatch.setattr(spectral, "_select_positions", short)
    with pytest.raises(EigFailure, match="dimension 1 does not match requested 2"):
        generalized_pairs(np.diag([3.0, 2.0, 1.0]), np.eye(3), 2, LargestMagnitude)


@pytest.mark.parametrize("solve", [solve_ccve, solve_via_generalized])
def test_repeated_indices_are_rejected(solve):
    with pytest.raises(EigFailure, match="repeats a position"):
        solve(example1_game(), Indices((0, 0)))
