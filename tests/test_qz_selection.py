"""The QZ route selects its deflating subspace by position, not by value.

It must return the subspace of exactly the selected eigenvalues, however close
their neighbours, and agree with the Schur route.
"""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from ccve.errors import ConjugatePairSplit, EigFailure
from ccve.spectral import (
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


def test_refused_reorder_is_a_typed_error(monkeypatch):
    # tgsen refuses a swap of (nearly) equal eigenvalues it cannot do stably,
    # e.g. the smallest selection of the uniform 1x6 game with seed 70, whose
    # boldM1 has the eigenvalue -1/65 five times; scipy reports it as a
    # ValueError.
    def refuse(*args, **kwargs):
        raise ValueError("Reordering of (A, B) failed")

    monkeypatch.setattr(sla, "ordqz", refuse)
    with pytest.raises(EigFailure, match="ordered QZ failed") as info:
        generalized_pairs(np.diag([2.0, 1.0]), np.eye(2), 1, LargestMagnitude)
    assert isinstance(info.value.__cause__, ValueError)


def test_non_deflating_basis_is_rejected(monkeypatch):
    # A rotation between a selected and an unselected column of Z keeps the
    # basis orthonormal but makes its span no deflating subspace of the
    # pencil (M1 symmetric, M2^T positive definite: real eigenvalues).
    rng = np.random.default_rng(7)
    M1 = rng.standard_normal((4, 4))
    M1 = M1 + M1.T
    M2T = np.eye(4) + 0.1 * np.diag(rng.random(4))
    real_ordqz = sla.ordqz

    def rotated(*args, **kwargs):
        AA, BB, alpha, beta, Q, Z = real_ordqz(*args, **kwargs)
        Z = Z.copy()
        Z[:, [1, 2]] = Z[:, [1, 2]] @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0))
        return AA, BB, alpha, beta, Q, Z

    generalized_pairs(M1, M2T, 2, LargestMagnitude)
    monkeypatch.setattr(sla, "ordqz", rotated)
    with pytest.raises(EigFailure, match="deflating-subspace residual"):
        generalized_pairs(M1, M2T, 2, LargestMagnitude)
