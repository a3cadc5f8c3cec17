"""Perturbation-dynamics spectra and local stability certification.

At a fixed conjecture pair, the linearized conjecture dynamics are
dL -> (bD1 - L1 bB1) dL (bA1 + bB1 L1)^{-1} and, as player 2's composite is
boldM1^{-1}, dL -> (bA1 - L2 bC1)^{-1} dL (bC1 L2 + bD1); their eigenvalues
are all ratios between the complementary and selected spectra of boldM1.
Max ratio magnitude below one certifies local asymptotic stability.  A solve
hands in the spectra from its reordered Schur form; ``ccve check`` recomputes
them from these four matrices.
"""

import math
from typing import NamedTuple

import numpy as np

from .core import (CompositeBlocks, QuadraticGame, _a_norms, _checked_L,
                   _checked_slope, _lu_checked, _residual_norms, _residuals,
                   _solve_checked, _sq_norm)
from .errors import DimensionMismatch, NotAFixedPoint, SingularComposite

# Residual threshold for accepting (L1, L2) as a fixed pair.
FIXED_POINT_TOL = 1e-6
# Half-width of the marginal band around |xi| = 1.
MARGINAL_BAND = 1e-9


def _verdict(xi):
    """The verdict on a multiplier magnitude xi: "stable" below the band
    |xi - 1| <= MARGINAL_BAND, "marginal" in it, "unstable" above it or NaN."""
    if xi < 1.0 - MARGINAL_BAND:
        return "stable"
    if abs(xi - 1.0) <= MARGINAL_BAND:
        return "marginal"
    return "unstable"


class StabilityReport(NamedTuple):
    ratios_1: np.ndarray
    ratios_2: np.ndarray
    xi_max_1: float
    xi_max_2: float
    stable: bool
    marginal: bool
    # Set when the two per-player certificates disagree beyond tolerance.
    internal_inconsistency: bool
    # (r1, r2): the fixed-point test's residual norms, relative to ||A_i||_F.
    residuals: tuple[float, float]


def perturbation_spectrum(blocks: CompositeBlocks, i: int, L_i):
    """All eigenvalue ratios of the linearized conjecture dynamics at L_i:
    spec(rest) / spec(contract), for player 2 with neither matrix inverted."""
    bA, bB, bC, bD = blocks.bold_blocks()
    L_i = _checked_L(blocks.dims, i, L_i)
    if i == 1:
        contract, rest = bA + bB @ L_i, bD - L_i @ bB
    else:
        contract, rest = bA - L_i @ bC, bC @ L_i + bD
    _lu_checked(contract, SingularComposite, i)
    lam = np.linalg.eigvals(rest)
    mu = np.linalg.eigvals(contract)
    return (lam[:, None] / mu[None, :]).reshape(-1)


def certify(blocks: CompositeBlocks, game: QuadraticGame, L1, L2) -> StabilityReport:
    """Stability certificate for a fixed conjecture pair, as ``ccve check``
    needs it: perturbation_spectrum recomputes both players' ratios from L1
    and L2, independently of any solve."""
    if blocks.dims != game.dims:
        raise DimensionMismatch(f"blocks of {blocks.dims} for a game of {game.dims}")
    return _certify(blocks, game, _checked_slope(game, 1, L1),
                    _checked_slope(game, 2, L2), None)


def _certify(blocks, game, s1, s2, spectra):
    """certify from the two players' slopes s_i, each a core._Slope at L_i.

    ``spectra`` is a solve's split (selected, complement) of spec(boldM1):
    both players' ratios are then complement / selected, as player 2's
    composite is boldM1^{-1}. None recomputes them by perturbation_spectrum.

    Checks the residuals, then H1 = bA1 + bB1 L1 against its alternate form
    (D2^T + B2 L1)^{-1}(A1 + B1^T L1), then guards K = bC1 L2 + bD1,
    J = bA1 - L2 bC1 and H1, each factored once; the inverses of K and J
    are player 2's H2 and H2'.
    """
    L1, L2 = s1.L, s2.L
    with np.errstate(over="ignore"):  # _norm rescales a square sum that overflows
        r1, r2 = _residual_norms(*_residuals(s1, s2), _a_norms(game))
    if not (r1 <= FIXED_POINT_TOL and r2 <= FIXED_POINT_TOL):
        raise NotAFixedPoint(
            f"(L1, L2) residuals ({r1:.3e}, {r2:.3e}) above {FIXED_POINT_TOL:g}"
        )
    bA1, bB1, bC1, bD1 = blocks.bold_blocks()
    H1 = bA1 + bB1 @ L1
    lhs = game.p2.D.T + game.p2.B.dot(L1)
    alt = _solve_checked(lhs, s1.P, NotAFixedPoint,
                         "D2^T + B2 L1 is singular: H1 has no alternate form")
    scale = max(math.sqrt(_sq_norm(H1)), 1e-300)
    if not math.sqrt(_sq_norm(alt - H1)) / scale <= 1e-8:
        raise NotAFixedPoint(
            "alternate form of H1 disagrees with the block form; "
            "(L1, L2) is not a consistent fixed pair"
        )
    _lu_checked(bC1 @ L2 + bD1, SingularComposite, 2)
    if spectra is None:
        # Player 2's spectrum guards J, player 1's then H1.
        ratios_2 = perturbation_spectrum(blocks, 2, L2)
        ratios_1 = perturbation_spectrum(blocks, 1, L1)
    else:
        _lu_checked(bA1 - L2 @ bC1, SingularComposite, 2)
        _lu_checked(H1, SingularComposite, 1)
        selected, complement = spectra
        ratios_1 = ratios_2 = (complement[:, None] / selected[None, :]).reshape(-1)
    xi1 = float(np.abs(ratios_1).max())
    xi2 = xi1 if ratios_2 is ratios_1 else float(np.abs(ratios_2).max())
    v1, v2 = _verdict(xi1), _verdict(xi2)
    marginal = "marginal" in (v1, v2)
    return StabilityReport(
        ratios_1=ratios_1, ratios_2=ratios_2,
        xi_max_1=xi1, xi_max_2=xi2,
        stable=v1 == "stable" and not marginal,
        marginal=marginal,
        internal_inconsistency={v1, v2} == {"stable", "unstable"},
        residuals=(r1, r2),
    )
