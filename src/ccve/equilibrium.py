"""Direct equilibrium computation via invariant subspaces.

A fixed conjecture slope L1 corresponds to an invariant subspace of boldM1
whose basis [Y1; X1] has invertible top block: L1 = X1 Y1^{-1}.  The rest of
the equilibrium (L2, offsets, actions) follows from the cross best-response
formulas, and stability/second-order certificates are attached.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import analysis, spectral, stability
from .core import (
    CompositeBlocks,
    QuadraticGame,
    _cost_rows,
    _cross_offset,
    _offset,
    _posdef,
    _slope_terms,
    _solve_checked,
    _write_json,
    assemble_blocks,
)
from .errors import (
    CcveError,
    ConjugatePairSplit,
    EnumerationTooLarge,
    NoStableSelection,
    NotAFixedPoint,
    SingularActionSystem,
    SingularBestResponse,
    SingularComposite,
    SubspaceNotGraph,
)
from .spectral import Indices, LargestMagnitude, Selection

# Threshold on Y1's 1-norm rcond estimate below which Y1 counts as singular.
Y1_RCOND_MIN = 1e-10
ENUMERATION_CAP = 5000


# A dataclass, not a NamedTuple: perfbench/smoke.py calls dataclasses.replace on it.
@dataclass(frozen=True)
class CcveSolution:
    L1: np.ndarray
    ell1: np.ndarray
    L2: np.ndarray
    ell2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    H1_spectrum: np.ndarray
    stability: stability.StabilityReport
    second_order: analysis.SecondOrderReport
    selection_used: str
    warnings: tuple

    @property
    def stable(self) -> bool:
        return self.stability.stable

    @property
    def xi_max(self) -> tuple[float, float]:
        return self.stability.xi_max_1, self.stability.xi_max_2


def _solve_actions(L1, ell1, L2, ell2):
    """The equilibrium actions (x1, x2) of the two affine conjectures, at slopes
    and offsets already checked, as a solve's are."""
    # I - L2 L1 in place; 0.0 - p gives each zero the sign np.eye(n) - p would.
    K = 0.0 - L2 @ L1
    K.flat[::K.shape[0] + 1] += 1.0
    x1 = _solve_checked(K, L2 @ ell1 + ell2, SingularActionSystem,
                        "I - L2 L1 is singular")
    x2 = L1 @ x1 + ell1
    return x1, x2


def _solution_from_subspace(
    game: QuadraticGame,
    blocks: CompositeBlocks,
    sub: spectral.InvariantSubspace,
    selection: Selection,
    posdef: tuple[bool, bool],
) -> CcveSolution:
    """The solution at the subspace's L1, found by ``selection``; ``posdef``
    holds the game's m1_posdef and m2_posdef flags."""
    # basis = [Y1; X1] with Y1 of shape d1 x d1; L1 = X1 Y1^{-1}, solved
    # as Y1^T L1^T = X1^T.
    d1 = game.dims.d1
    L1 = _solve_checked(
        sub.basis[:d1], sub.basis[d1:].T, SubspaceNotGraph,
        "the selected invariant subspace is not the graph of a conjecture "
        "(Y1 numerically singular)",
        rcond_min=Y1_RCOND_MIN, trans=1,
    ).T
    # Each slope (L_i, P_i, Q_i, c_i) is formed once; L2 and ell2 share one
    # solve with P1^T, and the certificate and second-order test read the slopes.
    s1 = _slope_terms(_cost_rows(game.p1), L1)
    L2, ell2 = _cross_offset(1, s1)
    s2 = _slope_terms(_cost_rows(game.p2), L2)
    ell1 = _offset(2, s2)
    x1, x2 = _solve_actions(L1, ell1, L2, ell2)
    # The certificate reads the split of spec(boldM1) the solve reordered.
    report = stability._certify(blocks, game, s1, s2,
                                (sub.eigenvalues, sub.complement))
    so = analysis._second_order(s1, s2, *posdef)
    return CcveSolution(
        L1=L1, ell1=ell1, L2=L2, ell2=ell2, x1=x1, x2=x2,
        # spec(H1) is the selected set: [I; L1] spans the subspace.
        H1_spectrum=sub.eigenvalues,
        stability=report,
        second_order=so,
        selection_used=str(selection),
        warnings=sub.warnings,
    )


def _solve_with(game, blocks, selection: Selection, route: str) -> CcveSolution:
    d1 = game.dims.d1
    if route == "direct":
        sub = spectral.invariant_subspace(blocks.boldM1, d1, selection)
    else:
        sub = spectral.generalized_pairs(blocks.M1, blocks.M2.T, d1, selection)
    posdef = _posdef(blocks.M1), _posdef(blocks.M2)
    return _solution_from_subspace(game, blocks, sub, selection, posdef)


def _solve(game: QuadraticGame, selection, route: str) -> CcveSolution:
    blocks = assemble_blocks(game)
    if isinstance(selection, Selection):
        return _solve_with(game, blocks, selection, route)
    if selection != "auto":
        raise ValueError(f"unknown selection {selection!r}")
    # Auto mode solves the largest-magnitude selection only: the certificate
    # max|lambda_comp| / min|mu_sel| < 1 needs the d1 selected eigenvalues
    # to be the largest in magnitude, so no other selection certifies stable.
    try:
        sol = _solve_with(game, blocks, LargestMagnitude, route)
    except (SubspaceNotGraph, ConjugatePairSplit, SingularBestResponse,
            SingularComposite, SingularActionSystem, NotAFixedPoint) as exc:
        raise NoStableSelection(
            f"largest-magnitude selection rejected: {type(exc).__name__}: {exc}"
        ) from exc
    if not sol.stable:
        raise NoStableSelection(
            "largest-magnitude selection is not certified stable "
            f"(xi_max = {sol.xi_max[0]:.6g}, {sol.xi_max[1]:.6g})"
        )
    return sol


def solve_ccve(game: QuadraticGame, selection="auto") -> CcveSolution:
    """Equilibrium via the invariant subspaces of boldM1.

    ``selection`` is a Selection or "auto".  Auto solves the largest-magnitude
    selection, the only one that can certify stable, and raises
    NoStableSelection when it is rejected (the cause) or not stable.
    """
    return _solve(game, selection, route="direct")


def solve_via_generalized(game: QuadraticGame, selection="auto") -> CcveSolution:
    """Equilibrium via M1 K = M2^T K Lambda (QZ); ``selection`` as in solve_ccve."""
    return _solve(game, selection, route="generalized")


class FixedPointCandidate(NamedTuple):
    """A d1-subset of spec(boldM1), by its positions in the descending-magnitude
    order, and the solution at the invariant subspace it spans."""

    indices: tuple[int, ...]
    solution: CcveSolution


class EnumerationResult(NamedTuple):
    candidates: tuple[FixedPointCandidate, ...]
    # (indices, error class name) for subsets that do not yield a conjecture.
    skipped: tuple[tuple[tuple[int, ...], str], ...]


def enumerate_fixed_points(game: QuadraticGame, cap=ENUMERATION_CAP) -> EnumerationResult:
    """All conjugation-closed d1-subsets of spec(boldM1) with invertible Y1.

    One real Schur form of boldM1 is computed and reordered for each of the
    C(d, d1) subsets, in index order, that keeps every conjugate pair whole.
    Indices are positions in the descending-magnitude order; a subset whose
    solve raises is skipped with the name of its error class.
    """
    blocks = assemble_blocks(game)
    d, d1 = game.dims.d, game.dims.d1
    if math.comb(d, d1) > cap:
        raise EnumerationTooLarge(
            f"binomial({d}, {d1}) = {math.comb(d, d1)} exceeds cap {cap}"
        )
    T, Z, values = spectral._schur(blocks.boldM1)
    # The M_i > 0 flags are the game's: one Cholesky attempt each, for every candidate.
    posdef = _posdef(blocks.M1), _posdef(blocks.M2)
    candidates = []
    skipped = []
    for idx in combinations(range(d), d1):
        selection = Indices(idx)
        try:
            sub = spectral._reorder(blocks.boldM1, T, Z, values, d1, selection)
            sol = _solution_from_subspace(game, blocks, sub, selection, posdef)
        except ConjugatePairSplit:
            continue  # the subset splits a conjugate pair
        except CcveError as exc:
            skipped.append((idx, type(exc).__name__))
            continue
        candidates.append(FixedPointCandidate(idx, sol))
    return EnumerationResult(tuple(candidates), tuple(skipped))


# --- Solution JSON ----------------------------------------------------------

def _complex_pairs(values):
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def solution_to_dict(sol: CcveSolution) -> dict:
    rep = sol.stability
    so = sol.second_order
    return {
        "L1": sol.L1.tolist(),
        "ell1": sol.ell1.tolist(),
        "L2": sol.L2.tolist(),
        "ell2": sol.ell2.tolist(),
        "x1": sol.x1.tolist(),
        "x2": sol.x2.tolist(),
        "stable": bool(sol.stable),
        "xi_max": {"player1": rep.xi_max_1, "player2": rep.xi_max_2},
        "second_order": {
            "min_eig_1": so.min_eig_1,
            "min_eig_2": so.min_eig_2,
            "pass": bool(so.pass_),
            "m1_posdef": so.m1_posdef,
            "m2_posdef": so.m2_posdef,
        },
        "selection": sol.selection_used,
        "spectrum": _complex_pairs(sol.H1_spectrum),
        "stability": {
            "ratios_1": _complex_pairs(rep.ratios_1),
            "ratios_2": _complex_pairs(rep.ratios_2),
            "xi_max_1": rep.xi_max_1,
            "xi_max_2": rep.xi_max_2,
            "flags": {
                "stable": bool(rep.stable),
                "marginal": bool(rep.marginal),
                "internal_inconsistency": bool(rep.internal_inconsistency),
            },
        },
        "warnings": list(sol.warnings),
    }


def save_solution(sol: CcveSolution, path) -> None:
    _write_json(path, solution_to_dict(sol))
