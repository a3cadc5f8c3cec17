"""Eigendecomposition and real ordered invariant subspaces.

Invariant subspaces are extracted from the real Schur form with eigenvalue
reordering (LAPACK trsen), or from the real generalized Schur form of a
pencil reordered by LAPACK tgsen, so complex conjugate pairs travel together
and real input matrices yield real bases whenever the selected eigenvalue set
is closed under conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _is_count, _sq_norm, lapack
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

    def __post_init__(self):
        if self.kind not in ("largest", "smallest", "indices"):
            raise EigFailure(f"unknown selection kind {self.kind!r}")
        try:
            positions = tuple(self.indices)
        except TypeError:
            raise EigFailure(
                f"selection positions must be a sequence, got {self.indices!r}") from None
        if self.kind != "indices" and positions:
            raise EigFailure(
                f"a {self.kind!r} selection takes no positions, got {self.indices!r}")
        if not all(map(_is_count, positions)):
            raise EigFailure(
                f"Indices selection positions must be integers, got {self.indices!r}")
        # Ints, so that str() reads indices[0, 2] for numpy integers too.
        object.__setattr__(self, "indices", tuple(map(int, positions)))

    def __str__(self):
        if self.kind == "indices":
            return f"indices{list(self.indices)}"
        return self.kind


LargestMagnitude = Selection("largest")
SmallestMagnitude = Selection("smallest")


def Indices(idx):
    """Selection by positions into the descending-magnitude-sorted spectrum;
    raises EigFailure unless ``idx`` is a sequence of counts (core._is_count)."""
    return Selection("indices", idx)


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
    warnings: tuple


def _sort_key(values):
    # Descending magnitude; ties broken by descending real then imaginary part.
    return np.lexsort((-values.imag, -values.real, -np.abs(values)))


def eig(M) -> Spectrum:
    """Full eigendecomposition of a real square matrix."""
    import scipy.linalg as sla  # only here: the package loads LAPACK through core

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


def _select_positions(values, k, selection: Selection):
    """Resolve a Selection to Schur positions; enforce conjugate-pair unity.

    ``values`` are in (generalized) Schur diagonal order, where each conjugate
    pair sits at adjacent positions with its positive imaginary part first.
    Returns (inside, selected_values, complement_values, warnings): the mask of
    the selection, each value set sorted as its own _sort_key (lexsort is stable).
    """
    n = len(values)
    if not (_is_count(k) and 1 <= k <= n):
        raise EigFailure(f"k must satisfy 1 <= k <= {n}, got {k}")
    order = _sort_key(values)
    if selection.kind == "largest":
        chosen = order[:k]
    elif selection.kind == "smallest":
        chosen = order[n - k:]
    else:
        if len(selection.indices) != k:
            raise EigFailure(
                f"Indices selection has {len(selection.indices)} entries, expected {k}"
            )
        if any(i < 0 or i >= n for i in selection.indices):
            raise EigFailure("Indices selection out of range")
        if len(set(selection.indices)) != k:
            raise EigFailure("Indices selection repeats a position")
        chosen = order[list(selection.indices)]

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


# LAPACK's queried lwork by (kernel, order): dgees sizes its Hessenberg QR
# and dgges the QR of B at order n whatever the input, so n alone decides it.
_LWORK = {}


def _form(name, *mats):
    """The outputs of LAPACK ``name`` (dgees or dgges) on ``mats`` at its queried
    lwork, unsorted; raises EigFailure when the form's info != 0."""
    kernel = getattr(lapack, name)
    unsorted = lambda *values: 0  # the select callback, called only to sort
    key = (name, mats[0].shape[0])
    lwork = _LWORK.get(key)
    if lwork is None:  # the query, once per kernel and order; a failed one is not kept
        work, info = kernel(unsorted, *mats, lwork=-1)[-2:]
        lwork = int(work[0])
        if info == 0:
            _LWORK[key] = lwork
    out = kernel(unsorted, *mats, lwork=lwork)
    if out[-1] != 0:
        raise EigFailure(f"{name} failed with info={out[-1]}")
    return out


def _schur(M):
    """(T, Z, values): real Schur form M = Z T Z^T and its eigenvalues in
    diagonal order, from LAPACK dgees at its queried lwork: bit for bit
    scipy.linalg.schur's. dgees gives each conjugate pair exactly conjugate,
    positive imaginary part first, and its real parts are T's diagonal."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.isfinite(M).all():
        raise EigFailure(f"expected a finite square matrix, got shape {M.shape}")
    T, _, wr, wi, Z, _, _ = _form("dgees", M)
    return T, Z, wr + 1j * wi


def _leading_basis(m, k, V, U, checks, what):
    """The contiguous leading k columns of the reordered right transform V.

    Raises EigFailure, naming the ``what`` residual, unless m == k and each
    (M, R) in ``checks`` deflates: M V_k = U_k R_kk to EIG_RESID_TOL relative
    to ||M||, where U_k is the basis itself when U is None (a Schur form)."""
    if m != k:
        raise EigFailure(
            f"reordered subspace dimension {m} does not match requested {k}"
        )
    basis = np.ascontiguousarray(V[:, :k])
    left = basis if U is None else U[:, :k]
    resid = max(
        math.sqrt(_sq_norm(M @ basis - left @ R[:k, :k]))
        / max(math.sqrt(_sq_norm(M)), 1e-300)
        for M, R in checks
    )
    if resid > EIG_RESID_TOL:
        raise EigFailure(f"{what} residual {resid:.3e} above tolerance")
    return basis


def _reorder(M, T, Z, values, k, selection: Selection) -> InvariantSubspace:
    """Reorder the Schur form (T, Z) of M so its leading k columns span the selection."""
    inside, selected, complement, warns = _select_positions(values, k, selection)
    ts, qs, wr, wi, m, s, sep, info = lapack.dtrsen(inside.astype(np.int32), T, Z, job="N")
    if info != 0:
        raise EigFailure(f"trsen failed with info={info}")
    # The Schur vectors are orthonormal; check invariance, M Q_k = Q_k T_kk.
    basis = _leading_basis(m, k, qs, None, ((M, ts),), "invariant-subspace")
    return InvariantSubspace(basis, selected, complement, warns)


def invariant_subspace(M, k, selection: Selection) -> InvariantSubspace:
    """Real orthonormal basis for the M-invariant subspace of the selection."""
    M = np.asarray(M, dtype=float)
    return _reorder(M, *_schur(M), k, selection)


# dtgsen's answer, info = 1, to a swap it cannot make stably.
_TGSEN_REFUSED = (
    "Reordering of (A, B) failed because the transformed matrix pair (A, B) "
    "would be too far from generalized Schur form; the problem is very "
    "ill-conditioned. (A, B) may have been partially reordered."
)


def _qz(M1, M2T):
    """(AA, BB, Q, Z, values): real generalized Schur form (M1, M2T) =
    (Q AA Z^T, Q BB Z^T) and its eigenvalues in diagonal order, from LAPACK
    dgges at its queried lwork: bit for bit scipy.linalg.qz's."""
    if not (M1.ndim == M2T.ndim == 2 and M1.shape[0] == M1.shape[1]
            and M1.shape == M2T.shape
            and np.isfinite(M1).all() and np.isfinite(M2T).all()):
        raise EigFailure(
            f"expected a finite square pencil, got shapes {M1.shape} and {M2T.shape}"
        )
    AA, BB, _, alphar, alphai, beta, Q, Z, _, _ = _form("dgges", M1, M2T)
    if np.any(beta == 0.0):
        raise EigFailure("infinite generalized eigenvalue: M2^T is singular")
    values = (alphar + alphai * 1j) / beta
    # A 2x2 block gives a conjugate pair, positive imaginary part first; its
    # two betas differ in the last bits, so conjugate exactly.
    pairs = np.nonzero(alphai > 0)[0]
    values[pairs + 1] = np.conj(values[pairs])
    return AA, BB, Q, Z, values


def generalized_pairs(M1, M2T, k, selection: Selection) -> InvariantSubspace:
    """Invariant subspace via the generalized problem M1 K = M2^T K Lambda.

    Solved with one ordered QZ decomposition of the pencil (M1, M2T): the
    selection is resolved on the unordered generalized Schur form and passed
    to LAPACK tgsen by position, so the leading k columns of the right
    transform span the deflating subspace of the selected eigenvalues.
    """
    M1 = np.asarray(M1, dtype=float)
    M2T = np.asarray(M2T, dtype=float)
    AA, BB, Q, Z, values = _qz(M1, M2T)
    inside, selected, complement, warns = _select_positions(values, k, selection)
    # scipy.linalg.ordqz's tgsen arguments; the reorder overwrites the form.
    AA, BB, _, _, _, Q, Z, m, _, _, _, info = lapack.dtgsen(
        inside.astype(np.int32), AA, BB, Q, Z, ijob=0,
        lwork=4 * M1.shape[0] + 16, liwork=1,
        overwrite_a=1, overwrite_b=1, overwrite_q=1, overwrite_z=1)
    if info != 0:
        reason = _TGSEN_REFUSED if info == 1 else f"dtgsen failed with info={info}"
        raise EigFailure(f"ordered QZ failed: {reason}")
    # Z is orthonormal; check M1 Z_k = Q_k AA_kk and M2^T Z_k = Q_k BB_kk.
    basis = _leading_basis(m, k, Z, Q, ((M1, AA), (M2T, BB)),
                           "generalized deflating-subspace")
    return InvariantSubspace(basis, selected, complement, warns)
