"""Second-order certification, Nash equilibrium, and social-cost baselines."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (QuadraticGame, _as_vector, _checked_slope, _cost_operands,
                   _costs, _min_eig, _posdef, _solve_checked, _solve_sym_checked,
                   _stack, stacked_m1, stacked_m2)
from .errors import SingularNashSystem, SingularSocialSystem

# Minimum-eigenvalue threshold for positive definiteness of the effective
# Hessians (absolute; games are expected to be O(1)-scaled).
SECOND_ORDER_EIG_MIN = 1e-10


@dataclass(frozen=True)
class SecondOrderReport:
    """The smallest eigenvalues of the effective per-player Hessians at a
    conjecture pair and their definiteness."""

    min_eig_1: float
    min_eig_2: float
    pass_: bool
    # Informational only: M_i > 0 is sufficient but far from necessary.
    m1_posdef: bool
    m2_posdef: bool


def _effective_hessian(s):
    """sym(P + L^T Q) from the slope s = _slope_terms(rows, L)."""
    S = s.P + s.L.T @ s.Q
    return 0.5 * (S + S.T)


def effective_hessian(game: QuadraticGame, i: int, L_i):
    """sym(A_i + L^T B_i + B_i^T L + L^T D_i L) for player i at slope L."""
    return _effective_hessian(_checked_slope(game, i, L_i))


def second_order_check(game: QuadraticGame, L1, L2) -> SecondOrderReport:
    """Check strong convexity of each player's conjectured problem."""
    return _second_order(_checked_slope(game, 1, L1), _checked_slope(game, 2, L2),
                         _posdef(stacked_m1(game)), _posdef(stacked_m2(game)))


def _second_order(s1, s2, m1_posdef, m2_posdef) -> SecondOrderReport:
    """second_order_check from the two players' slopes and the M_i > 0 flags,
    each one Cholesky attempt at the symmetric M_i (core._posdef)."""
    e1 = _min_eig(_effective_hessian(s1))
    e2 = _min_eig(_effective_hessian(s2))
    return SecondOrderReport(
        min_eig_1=e1, min_eig_2=e2,
        pass_=(e1 > SECOND_ORDER_EIG_MIN and e2 > SECOND_ORDER_EIG_MIN),
        m1_posdef=m1_posdef, m2_posdef=m2_posdef,
    )


def nash(game: QuadraticGame):
    """Zero-conjecture stationary point: the Nash equilibrium actions."""
    d1, d2 = game.dims.d1, game.dims.d2
    K = _stack(game.p1.A, game.p1.B.T, game.p2.B.T, game.p2.A)
    z = _solve_checked(K, -np.concatenate([game.p1.a, game.p2.a]),
                       SingularNashSystem,
                       "stacked Nash stationarity system is singular")
    return z[:d1], z[d1:]


def social_cost(game: QuadraticGame, x1, x2) -> float:
    """Total cost f1 + f2 at the joint action."""
    x1 = _as_vector(x1, game.dims.d1, "x1")
    x2 = _as_vector(x2, game.dims.d2, "x2")
    f1, f2 = _costs(_cost_operands(game, stacked_m1(game), stacked_m2(game)), x1, x2)
    return f1 + f2


def social_optimum(game: QuadraticGame):
    """Unconstrained minimizer of the social cost and its value.

    Emits a NotCertifiedMin warning when the stacked Hessian sym(M1 + M2) is
    not positive definite (the stationary point is then not a certified
    minimum).
    """
    M1, M2 = stacked_m1(game), stacked_m2(game)
    M = M1 + M2
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
    f1, f2 = _costs(_cost_operands(game, M1, M2), x1, x2)
    return x1, x2, f1 + f2
