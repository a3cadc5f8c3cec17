"""Second-order certification, Nash equilibrium, and social-cost baselines."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (QuadraticGame, _posdef, _slope_terms, _solve_checked,
                   _solve_sym_checked, eval_cost, stacked_m1, stacked_m2)
from .errors import DimensionMismatch, SingularNashSystem, SingularSocialSystem

# Minimum-eigenvalue threshold for positive definiteness of the effective
# Hessians (absolute; games are expected to be O(1)-scaled).
SECOND_ORDER_EIG_MIN = 1e-10


@dataclass(frozen=True)
class SecondOrderReport:
    """Effective per-player Hessians at a conjecture pair and their definiteness."""

    S1: np.ndarray
    S2: np.ndarray
    min_eig_1: float
    min_eig_2: float
    pass_: bool
    # Informational only: M_i > 0 is sufficient but far from necessary.
    m1_posdef: bool
    m2_posdef: bool


def _effective_hessian(L, terms):
    """sym(P + L^T Q) from the slope terms (P, Q) = _slope_terms(p, L)."""
    P, Q = terms
    S = P + L.T @ Q
    return 0.5 * (S + S.T)


def effective_hessian(game: QuadraticGame, i: int, L_i):
    """sym(A_i + L^T B_i + B_i^T L + L^T D_i L) for player i at slope L."""
    L = np.asarray(L_i, dtype=float)
    return _effective_hessian(L, _slope_terms(game.player(i), L))


def second_order_check(game: QuadraticGame, L1, L2) -> SecondOrderReport:
    """Check strong convexity of each player's conjectured problem."""
    L1 = np.asarray(L1, dtype=float)
    L2 = np.asarray(L2, dtype=float)
    if L1.shape != (game.dims.d2, game.dims.d1):
        raise DimensionMismatch(f"L1 has shape {L1.shape}")
    if L2.shape != (game.dims.d1, game.dims.d2):
        raise DimensionMismatch(f"L2 has shape {L2.shape}")
    S1 = effective_hessian(game, 1, L1)
    S2 = effective_hessian(game, 2, L2)
    e1 = float(np.linalg.eigvalsh(S1).min())
    e2 = float(np.linalg.eigvalsh(S2).min())
    return SecondOrderReport(
        S1=S1, S2=S2, min_eig_1=e1, min_eig_2=e2,
        pass_=(e1 > SECOND_ORDER_EIG_MIN and e2 > SECOND_ORDER_EIG_MIN),
        # M_i is symmetric (A_i and D_i are symmetrized): one Cholesky attempt.
        m1_posdef=_posdef(stacked_m1(game)), m2_posdef=_posdef(stacked_m2(game)),
    )


def nash(game: QuadraticGame):
    """Zero-conjecture stationary point: the Nash equilibrium actions."""
    d1, d2 = game.dims.d1, game.dims.d2
    K = np.block([[game.p1.A, game.p1.B.T], [game.p2.B.T, game.p2.A]])
    z = _solve_checked(K, -np.concatenate([game.p1.a, game.p2.a]),
                       SingularNashSystem,
                       "stacked Nash stationarity system is singular")
    return z[:d1], z[d1:]


def social_cost(game: QuadraticGame, x1, x2) -> float:
    """Total cost f1 + f2 at the joint action."""
    return eval_cost(game, 1, x1, x2) + eval_cost(game, 2, x1, x2)


def social_optimum(game: QuadraticGame):
    """Unconstrained minimizer of the social cost and its value.

    Emits a NotCertifiedMin warning when the stacked Hessian sym(M1 + M2) is
    not positive definite (the stationary point is then not a certified
    minimum).
    """
    M = stacked_m1(game) + stacked_m2(game)
    H = 0.5 * (M + M.T)
    g = np.concatenate([game.p1.a + game.p2.b, game.p1.b + game.p2.a])
    z, posdef = _solve_sym_checked(H, -g, SingularSocialSystem,
                                   "sym(M1 + M2) is singular")
    if not posdef:
        warnings.warn(
            "NotCertifiedMin: sym(M1 + M2) is not positive definite; the "
            "social stationary point may not be a minimum",
            stacklevel=2,
        )
    d1 = game.dims.d1
    x1, x2 = z[:d1], z[d1:]
    return x1, x2, social_cost(game, x1, x2)
