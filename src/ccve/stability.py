"""Perturbation-dynamics spectra and local stability certification.

At a fixed conjecture pair, the linearized conjecture dynamics for player i
are dL -> (bD_i - L_i bB_i) dL (bA_i + bB_i L_i)^{-1}; their eigenvalues are
all ratios lambda/mu between the complementary and selected spectra of the
composite matrix.  Max ratio magnitude below one certifies local asymptotic
stability of the iteration.  A solve hands in the two spectra from the
Schur form it reordered; ``ccve check`` recomputes them from the H-matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (RCOND_MIN, CompositeBlocks, QuadraticGame, _lu_rcond,
                   _slope_terms, _solve_checked, riccati_residual_norms)
from .errors import NotAFixedPoint, SingularComposite

# Residual threshold for accepting (L1, L2) as a fixed pair.
FIXED_POINT_TOL = 1e-6
# Half-width of the marginal band around |xi| = 1.
MARGINAL_BAND = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    H1: np.ndarray
    H1p: np.ndarray
    H2: np.ndarray
    H2p: np.ndarray
    ratios_1: np.ndarray
    ratios_2: np.ndarray
    xi_max_1: float
    xi_max_2: float
    stable: bool
    marginal: bool
    # Set when the two per-player certificates disagree beyond tolerance.
    internal_inconsistency: bool


def h_matrices(blocks: CompositeBlocks, game: QuadraticGame, L1, L2):
    """Similarity-transform diagonal blocks at a fixed pair (L1, L2).

    H1 = bA1 + bB1 L1, H1' = bD1 - L1 bB1 (and analogously for player 2).
    Cross-checks the alternate form H1 = (D2^T + B2 L1)^{-1}(A1 + B1^T L1).
    """
    L1 = np.asarray(L1, dtype=float)
    L2 = np.asarray(L2, dtype=float)
    r1, r2 = riccati_residual_norms(game, L1, L2)
    if max(r1, r2) > FIXED_POINT_TOL:
        raise NotAFixedPoint(
            f"(L1, L2) residuals ({r1:.3e}, {r2:.3e}) above {FIXED_POINT_TOL:g}"
        )
    H1 = blocks.A1 + blocks.B1 @ L1
    H1p = blocks.D1 - L1 @ blocks.B1
    H2 = blocks.A2 + blocks.B2 @ L2
    H2p = blocks.D2 - L2 @ blocks.B2
    lhs = game.p2.D.T + game.p2.B @ L1
    alt = _solve_checked(lhs, _slope_terms(game.p1, L1)[0], NotAFixedPoint,
                         "D2^T + B2 L1 is singular: H1 has no alternate form")
    scale = max(np.linalg.norm(H1), 1e-300)
    if np.linalg.norm(alt - H1) / scale > 1e-8:
        raise NotAFixedPoint(
            "alternate form of H1 disagrees with the block form; "
            "(L1, L2) is not a consistent fixed pair"
        )
    return H1, H1p, H2, H2p


def perturbation_spectrum(blocks: CompositeBlocks, i: int, L_i):
    """All eigenvalue ratios of the linearized conjecture dynamics at L_i."""
    bA, bB, _, bD = blocks.bold_blocks(i)
    L_i = np.asarray(L_i, dtype=float)
    contract = bA + bB @ L_i
    if _lu_rcond(contract)[2] < RCOND_MIN:
        raise SingularComposite(i)
    lam = np.linalg.eigvals(bD - L_i @ bB)
    mu = np.linalg.eigvals(contract)
    return (lam[:, None] / mu[None, :]).reshape(-1)


def certify(blocks: CompositeBlocks, game: QuadraticGame, L1, L2,
            spectra=None) -> StabilityReport:
    """Stability certificate for a fixed conjecture pair.

    A solve passes ``spectra`` = (selected, complement), its split of
    spec(boldM1) = spec(H1) + spec(H1'); both players' ratios are then
    complement / selected, as boldM2^T is similar to boldM1^{-1}.  Without
    them (``ccve check``) perturbation_spectrum recomputes them from the H's.
    """
    H1, H1p, H2, H2p = h_matrices(blocks, game, L1, L2)
    if spectra is None:
        ratios_1 = perturbation_spectrum(blocks, 1, L1)
        ratios_2 = perturbation_spectrum(blocks, 2, L2)
    else:
        for i, H in ((1, H1), (2, H2)):  # perturbation_spectrum's guard
            if _lu_rcond(H)[2] < RCOND_MIN:
                raise SingularComposite(i)
        selected, complement = spectra
        ratios_1 = ratios_2 = (complement[:, None] / selected[None, :]).reshape(-1)
    xi1 = float(np.max(np.abs(ratios_1)))
    xi2 = float(np.max(np.abs(ratios_2)))
    stable_1 = xi1 < 1.0 - MARGINAL_BAND
    stable_2 = xi2 < 1.0 - MARGINAL_BAND
    marginal = (abs(xi1 - 1.0) <= MARGINAL_BAND) or (abs(xi2 - 1.0) <= MARGINAL_BAND)
    inconsistent = (stable_1 != stable_2) and not marginal
    return StabilityReport(
        H1=H1, H1p=H1p, H2=H2, H2p=H2p,
        ratios_1=ratios_1, ratios_2=ratios_2,
        xi_max_1=xi1, xi_max_2=xi2,
        stable=stable_1 and not marginal,
        marginal=marginal,
        internal_inconsistency=inconsistent,
    )
