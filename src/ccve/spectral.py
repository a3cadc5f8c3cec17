"""Eigendecomposition and real ordered invariant subspaces.

Invariant subspaces are extracted from the real Schur form with eigenvalue
reordering (LAPACK trsen), so complex conjugate pairs travel together and
real input matrices yield real bases whenever the selected eigenvalue set is
closed under conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .core import _sq_norm
from .errors import ConjugatePairSplit, EigFailure

# Relative residual tolerance for eigenpairs and subspace checks.
EIG_RESID_TOL = 1e-8
# Relative magnitude separation below which the selection boundary counts
# as having no spectral gap.
GAP_TOL = 1e-8


@dataclass(frozen=True)
class Selection:
    """Which eigenvalues of the target matrix to associate with the subspace."""

    kind: str  # "largest" | "smallest" | "indices"
    indices: tuple = ()

    def __str__(self):
        if self.kind == "indices":
            return f"indices{list(self.indices)}"
        return self.kind


LargestMagnitude = Selection("largest")
SmallestMagnitude = Selection("smallest")


def Indices(idx):
    """Selection by positions into the descending-magnitude-sorted spectrum."""
    return Selection("indices", tuple(int(i) for i in idx))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by descending magnitude, with right eigenvectors."""

    values: np.ndarray
    magnitudes: np.ndarray
    vectors: np.ndarray | None = None


@dataclass(frozen=True)
class InvariantSubspace:
    """A real orthonormal basis for an invariant subspace of a real matrix."""

    basis: np.ndarray
    eigenvalues: np.ndarray  # the selected spectrum, descending magnitude
    complement: np.ndarray  # the rest of the spectrum, in the same order
    warnings: tuple = field(default=())


def _sort_key(values):
    # Descending magnitude; ties broken by descending real then imaginary part.
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def eig(M) -> Spectrum:
    """Full eigendecomposition of a real square matrix."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise EigFailure(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise EigFailure("matrix contains non-finite entries")
    try:
        values, vectors = sla.eig(M)
    except sla.LinAlgError as exc:  # pragma: no cover - LAPACK non-convergence
        raise EigFailure(str(exc)) from exc
    order = _sort_key(values)
    values = values[order]
    vectors = vectors[:, order]
    scale = max(np.linalg.norm(M), 1e-300)
    for j in range(len(values)):
        resid = np.linalg.norm(M @ vectors[:, j] - values[j] * vectors[:, j])
        if resid / scale > EIG_RESID_TOL:
            raise EigFailure(
                f"eigenpair {j} residual {resid / scale:.3e} above tolerance"
            )
    return Spectrum(values=values, magnitudes=np.abs(values), vectors=vectors)


def _schur_values(T):
    """Eigenvalues on the diagonal of a standardized real Schur form T.

    LAPACK stores each conjugate pair as a 2x2 block [[a, b], [c, a]] with
    bc < 0, whose eigenvalues are a +/- i sqrt(-bc), positive imaginary part
    first; every other diagonal entry is a real eigenvalue.
    """
    values = np.diag(T).astype(complex)
    first = np.nonzero(np.diag(T, -1))[0]
    imag = np.sqrt(-(T[first, first + 1] * T[first + 1, first]))
    values[first] += 1j * imag
    values[first + 1] -= 1j * imag
    return values


def _select_positions(values, k, selection: Selection):
    """Resolve a Selection to Schur positions; enforce conjugate-pair unity.

    ``values`` are in (generalized) Schur diagonal order, where each conjugate
    pair sits at adjacent positions with its positive imaginary part first.
    Returns (inside, selected_values, complement_values, warnings): the mask of
    the selection, each value set sorted as its own _sort_key (lexsort is stable).
    """
    n = len(values)
    if not 1 <= k <= n:
        raise EigFailure(f"k must satisfy 1 <= k <= {n}, got {k}")
    order = _sort_key(values)
    if selection.kind == "largest":
        chosen = order[:k]
    elif selection.kind == "smallest":
        chosen = order[n - k:]
    elif selection.kind == "indices":
        if len(selection.indices) != k:
            raise EigFailure(
                f"Indices selection has {len(selection.indices)} entries, expected {k}"
            )
        if any(i < 0 or i >= n for i in selection.indices):
            raise EigFailure("Indices selection out of range")
        chosen = order[list(selection.indices)]
    else:  # pragma: no cover
        raise EigFailure(f"unknown selection kind {selection.kind!r}")

    inside = np.zeros(n, dtype=bool)
    inside[chosen] = True
    first = np.nonzero(values.imag > 0)[0]
    if np.any(inside[first] != inside[first + 1]):
        raise ConjugatePairSplit(
            "selection boundary falls inside a complex conjugate pair"
        )
    warns = []
    # Magnitude gap at the selection boundary (contiguous selections only).
    if selection.kind in ("largest", "smallest") and k < n:
        mags = np.abs(values[order])
        boundary = k if selection.kind == "largest" else n - k
        lo, hi = mags[boundary - 1], mags[boundary]
        if abs(lo - hi) <= GAP_TOL * max(lo, hi, 1e-300):
            warns.append("NoSpectralGap")
    ranked = inside[order]
    return inside, values[order[ranked]], values[order[~ranked]], tuple(warns)


# dgees's queried lwork by matrix order: the query sizes the Hessenberg QR
# with ilo = 1, ihi = n whatever the matrix, so its answer depends on n alone.
_DGEES_LWORK = {}


def _schur(M):
    """(T, Z, values): real Schur form M = Z T Z^T and T's diagonal eigenvalues,
    from LAPACK dgees at its queried lwork: bit for bit scipy.linalg.schur's."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.isfinite(M).all():
        raise EigFailure(f"expected a finite square matrix, got shape {M.shape}")
    unsorted = lambda wr, wi: 0  # the select callback, called only to sort
    lwork = _DGEES_LWORK.get(M.shape[0])
    if lwork is None:  # the query, once per order; a failed one is not kept
        work, info = lapack.dgees(unsorted, M, lwork=-1)[-2:]
        lwork = int(work[0])
        if info == 0:
            _DGEES_LWORK[M.shape[0]] = lwork
    T, _, _, _, Z, _, info = lapack.dgees(unsorted, M, lwork=lwork)
    if info != 0:
        raise EigFailure(f"dgees failed with info={info}")
    return T, Z, _schur_values(T)


def _reorder(M, T, Z, values, k, selection: Selection) -> InvariantSubspace:
    """Reorder the Schur form (T, Z) of M so its leading k columns span the selection."""
    inside, selected, complement, warns = _select_positions(values, k, selection)
    ts, qs, wr, wi, m, s, sep, info = lapack.dtrsen(inside.astype(np.int32), T, Z, job="N")
    if info != 0:
        raise EigFailure(f"trsen failed with info={info}")
    if m != k:
        raise EigFailure(
            f"reordered subspace dimension {m} does not match requested {k}"
        )
    basis = np.ascontiguousarray(qs[:, :k])
    # Orthonormality comes from the Schur vectors; verify invariance against
    # the reordered leading Schur block, M Q_k = Q_k T_kk.
    scale = max(math.sqrt(_sq_norm(M)), 1e-300)
    resid = math.sqrt(_sq_norm(M @ basis - basis @ ts[:k, :k])) / scale
    if resid > EIG_RESID_TOL:
        raise EigFailure(f"invariant-subspace residual {resid:.3e} above tolerance")
    return InvariantSubspace(basis, selected, complement, warns)


def invariant_subspace(M, k, selection: Selection) -> InvariantSubspace:
    """Real orthonormal basis for the M-invariant subspace of the selection."""
    M = np.asarray(M, dtype=float)
    return _reorder(M, *_schur(M), k, selection)


def generalized_pairs(M1, M2T, k, selection: Selection) -> InvariantSubspace:
    """Invariant subspace via the generalized problem M1 K = M2^T K Lambda.

    Solved with one ordered QZ decomposition of the pencil (M1, M2T): the
    selection is resolved on the unordered generalized Schur form and passed
    to LAPACK tgsen by position, so the leading k columns of the right
    transform span the deflating subspace of the selected eigenvalues.
    """
    M1 = np.asarray(M1, dtype=float)
    M2T = np.asarray(M2T, dtype=float)
    selected = complement = warns = None

    def pick(alpha, beta):
        # Called once by ordqz, in QZ diagonal order, before the tgsen reorder.
        nonlocal selected, complement, warns
        if np.any(beta == 0.0):
            raise EigFailure("infinite generalized eigenvalue: M2^T is singular")
        values = alpha / beta
        # A 2x2 block gives a conjugate pair, positive imaginary part first;
        # its two betas differ in the last bits, so conjugate exactly.
        pairs = np.nonzero(alpha.imag > 0)[0]
        values[pairs + 1] = np.conj(values[pairs])
        inside, selected, complement, warns = _select_positions(values, k, selection)
        return inside

    try:
        AA, BB, _, _, Q, Z = sla.ordqz(M1, M2T, sort=pick, output="real")
    except ValueError as exc:  # e.g. tgsen refuses an ill-conditioned reorder
        raise EigFailure(f"ordered QZ failed: {exc}") from exc
    basis = np.ascontiguousarray(Z[:, :k])
    # Orthonormality comes from Z; verify deflation against the reordered
    # leading blocks, M1 Z_k = Q_k AA_kk and M2^T Z_k = Q_k BB_kk.
    resid = max(
        math.sqrt(_sq_norm(M @ basis - Q[:, :k] @ R[:k, :k]))
        / max(math.sqrt(_sq_norm(M)), 1e-300)
        for M, R in ((M1, AA), (M2T, BB))
    )
    if resid > EIG_RESID_TOL:
        raise EigFailure(
            f"generalized deflating-subspace residual {resid:.3e} above tolerance"
        )
    return InvariantSubspace(basis, selected, complement, warns)
