"""Eigendecomposition and real ordered invariant subspaces.

Invariant subspaces are extracted from the real Schur form with eigenvalue
reordering (LAPACK trsen), or from the real generalized Schur form of a
pencil reordered by LAPACK tgsen, so complex conjugate pairs travel together
and real input matrices yield real bases whenever the selected eigenvalue set
is closed under conjugation.
"""

from typing import NamedTuple

import numpy as np

from .core import _is_count, _norm, _sq_norm, lapack
from .errors import ConjugatePairSplit, EigFailure

# Relative residual tolerance for eigenpairs and subspace checks.
EIG_RESID_TOL = 1e-8
# Relative magnitude separation below which the selection boundary counts
# as having no spectral gap.
GAP_TOL = 1e-8


class _Selection(NamedTuple):
    kind: str  # "largest" | "smallest" | "indices"
    indices: tuple = ()


class Selection(_Selection):
    """Which eigenvalues of the target matrix to associate with the subspace."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__ too

    def __new__(cls, *args, **kwargs):
        kind, indices = super().__new__(cls, *args, **kwargs)
        if kind not in ("largest", "smallest", "indices"):
            raise EigFailure(f"unknown selection kind {kind!r}")
        try:
            positions = tuple(indices)
        except TypeError:
            raise EigFailure(
                f"selection positions must be a sequence, got {indices!r}") from None
        if kind != "indices" and positions:
            raise EigFailure(
                f"a {kind!r} selection takes no positions, got {indices!r}")
        if not all(map(_is_count, positions)):
            raise EigFailure(
                f"Indices selection positions must be integers, got {indices!r}")
        # Ints, so that str() reads indices[0, 2] for numpy integers too.
        return super().__new__(cls, kind, tuple(map(int, positions)))

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


class Spectrum(NamedTuple):
    """Eigenvalues sorted by descending magnitude, with right eigenvectors."""

    values: np.ndarray
    magnitudes: np.ndarray
    vectors: np.ndarray | None = None


class InvariantSubspace(NamedTuple):
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
    if not np.isfinite(M).all():
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
    if (inside[first] != inside[first + 1]).any():
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


def _form(name, *mats, **options):
    """The outputs of LAPACK ``name`` (dgees or dgges) on ``mats`` and ``options``
    at its queried lwork, unsorted; raises EigFailure when the form's info != 0."""
    kernel = getattr(lapack, name)
    unsorted = lambda *values: 0  # the select callback, called only to sort
    work = kernel(unsorted, *mats, lwork=-1, **options)[-2]
    out = kernel(unsorted, *mats, lwork=int(work[0]), **options)
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


def _leading_basis(m, k, V):
    """The contiguous leading k columns of the reordered right transform V;
    raises EigFailure unless the reorder moved m == k values to the front."""
    if m != k:
        raise EigFailure(
            f"reordered subspace dimension {m} does not match requested {k}"
        )
    return np.ascontiguousarray(V[:, :k])


def _check_residual(what, *pairs):
    """Raises EigFailure, naming the ``what`` residual, unless ||R||_F <=
    EIG_RESID_TOL ||M||_F for each (R, M) in ``pairs``; a NaN residual fails."""
    with np.errstate(over="ignore"):  # core._norm rescales a square sum that overflows
        for R, M in pairs:
            resid = _norm(R) / max(_norm(M), 1e-300)
            if not resid <= EIG_RESID_TOL:
                raise EigFailure(f"{what} residual {resid:.3e} above tolerance")


def _reorder(M, T, Z, values, k, selection: Selection) -> InvariantSubspace:
    """Reorder the Schur form (T, Z) of M so its leading k columns span the selection."""
    inside, selected, complement, warns = _select_positions(values, k, selection)
    ts, qs, wr, wi, m, s, sep, info = lapack.dtrsen(inside.astype(np.int32), T, Z, job="N")
    if info != 0:
        raise EigFailure(f"trsen failed with info={info}")
    # The Schur vectors are orthonormal; check invariance, M Q_k = Q_k T_kk.
    basis = _leading_basis(m, k, qs)
    _check_residual("invariant-subspace", (M.dot(basis) - basis @ ts[:k, :k], M))
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
    """(AA, BB, Z, values): real generalized Schur form (M1, M2T) =
    (Q AA Z^T, Q BB Z^T) and its eigenvalues in diagonal order, from LAPACK
    dgges at its queried lwork. AA, BB and Z are bit for bit scipy.linalg.qz's;
    the left transform Q is not formed (jobvsl=0), as nothing reads it."""
    if not (M1.ndim == M2T.ndim == 2 and M1.shape[0] == M1.shape[1]
            and M1.shape == M2T.shape
            and np.isfinite(M1).all() and np.isfinite(M2T).all()):
        raise EigFailure(
            f"expected a finite square pencil, got shapes {M1.shape} and {M2T.shape}"
        )
    AA, BB, _, alphar, alphai, beta, _, Z, _, _ = _form("dgges", M1, M2T, jobvsl=0)
    if (beta == 0.0).any():
        raise EigFailure("infinite generalized eigenvalue: M2^T is singular")
    values = (alphar + alphai * 1j) / beta
    # A 2x2 block gives a conjugate pair, positive imaginary part first; its
    # two betas differ in the last bits, so conjugate exactly.
    pairs = np.nonzero(alphai > 0)[0]
    values[pairs + 1] = np.conj(values[pairs])
    return AA, BB, Z, values


def generalized_pairs(M1, M2T, k, selection: Selection) -> InvariantSubspace:
    """Invariant subspace via the generalized problem M1 K = M2^T K Lambda.

    Solved with one ordered QZ decomposition of the pencil (M1, M2T): the
    selection is resolved on the unordered generalized Schur form and passed
    to LAPACK tgsen by position, so the leading k columns of the right
    transform span the deflating subspace of the selected eigenvalues.
    """
    M1 = np.asarray(M1, dtype=float)
    M2T = np.asarray(M2T, dtype=float)
    AA, BB, Z, values = _qz(M1, M2T)
    n = M1.shape[0]
    inside, selected, complement, warns = _select_positions(values, k, selection)
    # scipy.linalg.ordqz's tgsen arguments but wantq=0: the reorder overwrites
    # the form, and the wrapper's n x n q is never read.
    AA, BB, alphar, _, beta, _, Z, m, _, _, _, info = lapack.dtgsen(
        inside.astype(np.int32), AA, BB, np.empty((n, n), order="F"), Z, ijob=0,
        wantq=0, lwork=4 * n + 16, liwork=1,
        overwrite_a=1, overwrite_b=1, overwrite_q=1, overwrite_z=1)
    if info != 0:
        reason = _TGSEN_REFUSED if info == 1 else f"dtgsen failed with info={info}"
        raise EigFailure(f"ordered QZ failed: {reason}")
    # Z is orthonormal; check that M1 Z_k and M2^T Z_k lie in one span, Q_k's.
    # Its basis W is the QR factor of M1 Z_k diag(alphar) / ||M1||^2 + M2^T Z_k
    # diag(beta) / ||M2^T||^2 = Q_k T, T nonsingular whatever lambda is; the span
    # of M2^T Z_k alone, like BB_kk^{-1} AA_kk, amplifies rounding by the largest
    # |lambda| (README "Numerical guards").
    basis = _leading_basis(m, k, Z)
    sq1, sq2 = _sq_norm(M1), _sq_norm(M2T)
    X, Y = M1.dot(basis), M2T.dot(basis)
    qr, tau = lapack.dgeqrf(X * (alphar[:k] / max(sq1, 1e-300)) + Y * (beta[:k] / sq2))[:2]
    W = lapack.dorgqr(qr, tau, overwrite_a=1)[0]
    X -= W.dot(W.T.dot(X))
    Y -= W.dot(W.T.dot(Y))
    _check_residual("generalized deflating-subspace", (X, M1), (Y, M2T))
    return InvariantSubspace(basis, selected, complement, warns)
