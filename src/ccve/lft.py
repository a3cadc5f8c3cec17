"""Conjecture best-response maps and their iteration.

The cross update maps one player's conjecture slope to the opponent's
consistent best-response slope; the composite update chains two cross steps
and is represented compactly by the blocks of boldM1 (player 2's: its inverse).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import analysis, core
from .core import (
    CompositeBlocks,
    Conjecture,
    QuadraticGame,
    _a_norms,
    _residual_norms,
    _residuals,
    _solve_checked,
    _solve_sym_checked,
    assemble_blocks,
)
from .errors import DimensionMismatch, SingularBestResponse, SingularComposite

# Conjecture-norm threshold beyond which the iteration counts as diverged.
DIVERGENCE_NORM = 1e12


def _offset(i, s):
    """-P^{-T} c: the opponent offset at player i's slope s."""
    return -_solve_checked(s.P.T, s.c, SingularBestResponse, i)


def _cross_offset(i, s):
    """(-P^{-T} Q^T, -P^{-T} c): the opponent slope and offset at player i's
    slope s, from one LU of P^T and one dgetrs of the F-contiguous [Q^T | c]."""
    X = _solve_checked(s.P.T, s.Qc.T, SingularBestResponse, i)
    np.negative(X, out=X)
    return X[:, :-1], X[:, -1]


def lft_cross(game: QuadraticGame, i: int, L_i):
    """Opponent slope consistent with player i's data given i's slope L_i."""
    return _cross_offset(i, core._checked_slope(game, i, L_i))[0]


def offset_cross(game: QuadraticGame, i: int, L_i):
    """Opponent affine offset consistent with player i's data at slope L_i."""
    return _offset(i, core._checked_slope(game, i, L_i))


def composite_step(blocks: CompositeBlocks, i: int, L_i):
    """One composite update: L1 -> (bC1 + bD1 L1)(bA1 + bB1 L1)^{-1}, or
    L2 -> (bA1 - L2 bC1)^{-1}(L2 bD1 - bB1), as player 2's composite is boldM1^{-1}."""
    return _composite(blocks, i, core._checked_L(blocks.dims, i, L_i))


def _composite(blocks, i, L_i):
    """composite_step at a slope L_i already checked, as the iteration's are."""
    bA, bB, bC, bD = blocks.bold_blocks()
    if i == 2:
        return _solve_checked(bA - L_i @ bC, L_i @ bD - bB, SingularComposite, 2)
    num = bC + bD @ L_i
    # Right division: solve X (A + B L) = (C + D L) via the transposed system.
    return _solve_checked(bA + bB @ L_i, num.T, SingularComposite, 1, trans=1).T


def _best_response(i, s, ell):
    """(x, posdef): player i's stationary action at its slope s and offset
    ell, and whether its effective Hessian is positive definite."""
    rhs = s.Q.T @ ell
    rhs += s.c
    x, posdef = _solve_sym_checked(analysis._effective_hessian(s), rhs,
                                   SingularBestResponse, i)
    return np.negative(x, out=x), posdef


def best_response(game: QuadraticGame, i: int, conj: Conjecture):
    """Player i's optimal action under its conjecture (L, ell).

    Solves the stationarity condition of f_i(x_i, L x_i + ell); emits a
    NotCertifiedMin warning when the effective Hessian is not positive
    definite. An L or ell of the wrong shape or not finite raises DimensionMismatch.
    """
    if conj.holder != i:
        raise DimensionMismatch(f"conjecture holder {conj.holder} != player {i}")
    s = core._checked_slope(game, i, conj.L)
    ell = core._as_vector(conj.ell, s.L.shape[0], f"ell{i}")
    x, posdef = _best_response(i, s, ell)
    if not posdef:
        warnings.warn(
            f"NotCertifiedMin: player {i}'s effective Hessian is not positive "
            "definite; returned stationary point may not be a minimizer",
            stacklevel=2,
        )
    return x


def predict(conj: Conjecture, x_i):
    """The conjectured opponent action L x_i + ell; an x_i of the wrong length
    or not finite raises DimensionMismatch."""
    x_i = core._as_vector(x_i, conj.L.shape[1], f"x{conj.holder}")
    return conj.L @ x_i + conj.ell


@dataclass(frozen=True)
class IterationConfig:
    """Settings for the conjecture iteration.

    ``init=None`` means Nash initialization: zero slopes and offsets equal to
    the opposing Nash action.
    """

    mode: str = "cross"  # "cross" | "composite"
    max_iters: int = 100
    tol: float = 1e-8
    init: tuple[Conjecture, Conjecture] | None = None

    def __post_init__(self):
        if self.mode not in ("cross", "composite"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not core._is_count(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0 < self.tol < math.inf:  # False for NaN too
            raise ValueError("tol must be positive and finite")
        # The residuals, relative to ||A_i||_F, are held to tol: a tol of 1
        # or more would accept a residual as large as A_i itself.
        if not self.tol < 1:
            raise ValueError("tol must be below 1")


class IterationStep(NamedTuple):
    """Snapshot of one iteration of the conjecture dynamics: the values the
    step computes. The predicted actions and the social cost are derived
    when read."""

    iteration: int
    L1: np.ndarray
    ell1: np.ndarray
    L2: np.ndarray
    ell2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    f1: float
    f2: float
    res1: float
    res2: float

    @property
    def xhat1(self) -> np.ndarray:
        """Player 2's conjectured prediction of x1: L2 x2 + ell2."""
        return self.L2 @ self.x2 + self.ell2

    @property
    def xhat2(self) -> np.ndarray:
        """Player 1's conjectured prediction of x2: L1 x1 + ell1."""
        return self.L1 @ self.x1 + self.ell1

    @property
    def f_social(self) -> float:
        """The social cost f1 + f2."""
        return self.f1 + self.f2


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]
    status: str  # "converged" | "max_iters" | "diverged" | "singular"
    status_iter: int
    # Largest step change of the last completed step; None before the first.
    change: float | None

    @property
    def final(self) -> IterationStep:
        return self.steps[-1]


def _record(k, s1, ell1, s2, ell2, a_norms, cost_operands):
    """(step, posdef): step k of the trace at the slopes s1, s2 and offsets
    ell1, ell2, and the posdef flags of the two effective Hessians.

    ``a_norms`` is _a_norms(game) and ``cost_operands`` is
    core._cost_operands(game, M1, M2). The actions are checked for
    finiteness, as eval_cost would; shapes are known.
    """
    x1, posdef1 = _best_response(1, s1, ell1)
    x2, posdef2 = _best_response(2, s2, ell2)
    f1, f2 = core._costs(cost_operands, x1, x2)
    # A non-finite action makes both costs non-finite, so the actions are
    # read only then; finite actions whose cost overflows are recorded.
    if not (math.isfinite(f1) and math.isfinite(f2)):
        for name, x in (("x1", x1), ("x2", x2)):
            if not np.isfinite(x).all():
                raise DimensionMismatch(f"{name} contains non-finite entries")
    res1, res2 = _residual_norms(*_residuals(s1, s2), a_norms)
    # tuple.__new__ skips the NamedTuple's Python-level __new__, as
    # core._slope_terms does.
    step = tuple.__new__(IterationStep,
                         (k, s1.L, ell1, s2.L, ell2, x1, x2, f1, f2, res1, res2))
    return step, (posdef1, posdef2)


def _max_norm(*arrays):
    """max(np.linalg.norm(m) for m in arrays), bit for bit: sqrt is monotone."""
    return math.sqrt(max(map(core._sq_norm, arrays)))


def _step(rows, blocks, s1, s2, cross):
    """One map step from the slopes s1, s2: the new slopes, the offsets they
    give and, in cross mode, the next step's slope matrices.

    ``rows`` holds each player's core._cost_rows. Cross mode takes the new
    slopes from ``cross``, the pair the previous step returned, or at step 1
    (``cross`` None) maps s1 and s2; composite mode (``blocks`` given)
    applies composite_step unchecked.
    """
    if blocks is None:
        L1n, L2n = cross or (_cross_offset(2, s2)[0], _cross_offset(1, s1)[0])
    else:
        L1n, L2n = _composite(blocks, 1, s1.L), _composite(blocks, 2, s2.L)
    s1n = core._slope_terms(rows[0], L1n)
    s2n = core._slope_terms(rows[1], L2n)
    # Offsets follow the refreshed slopes so each (L, ell) pair stays
    # best-response consistent within the step. In cross mode the one solve
    # with each P_i^T that gives the offset also gives the next step's slope.
    if blocks is None:
        L1x, ell1n = _cross_offset(2, s2n)
        L2x, ell2n = _cross_offset(1, s1n)
        cross = (L1x, L2x)
    else:
        ell1n = _offset(2, s2n)
        ell2n = _offset(1, s1n)
        cross = None
    return s1n, ell1n, s2n, ell2n, cross


def iterate(game: QuadraticGame, cfg: IterationConfig) -> IterationTrace:
    """Run the conjecture dynamics and record a full trace.

    Cross mode applies simultaneous cross updates; composite mode applies the
    composite update to each player independently. Offsets are refreshed from
    the current slopes at every step; in cross mode one LU of each
    P_i^T = (A_i + B_i^T L_i)^T gives both its offset and the next step's slope.

    Status: "converged", "max_iters", "diverged", or "singular" when a step
    k >= 1 meets a singular system (a slope or offset map, a composite
    update, or a best response of its record); the trace then ends at step
    k - 1 and ``status_iter`` is k. A singular best response at the initial
    conjecture raises SingularBestResponse, since no step can be returned.

    Warns NotCertifiedMin once, naming the first step and player whose
    effective Hessian is not positive definite.
    """
    # _factor_m validates the game as it stacks and factors M1 and M2; the
    # record reads them stacked as [M1; M2].
    if cfg.mode == "composite":
        blocks = assemble_blocks(game)
        cost_operands = core._cost_operands(game, blocks.M1, blocks.M2)
    else:
        blocks = None
        (M1, _, _), (M2, _, _) = core._factor_m(game)
        cost_operands = core._cost_operands(game, M1, M2)
        del M1, M2  # the stacked copy is all the run keeps
    dims = game.dims
    if cfg.init is None:
        x1ne, x2ne = analysis.nash(game)
        L1 = np.zeros((dims.d2, dims.d1))
        ell1 = x2ne
        L2 = np.zeros((dims.d1, dims.d2))
        ell2 = x1ne
    else:
        conj1, conj2 = cfg.init
        if conj1.holder != 1 or conj2.holder != 2:
            raise DimensionMismatch("init must be (player-1, player-2) conjectures")
        L1 = core._checked_L(dims, 1, conj1.L).copy()
        ell1 = core._as_vector(conj1.ell, dims.d2, "ell1").copy()
        L2 = core._checked_L(dims, 2, conj2.L).copy()
        ell2 = core._as_vector(conj2.ell, dims.d1, "ell2").copy()

    # Each step forms the _Slope of each new L_i once, from the players'
    # cost rows; the offsets, the record and the next step's cross map read it.
    rows = core._cost_rows(game.p1), core._cost_rows(game.p2)
    s1 = core._slope_terms(rows[0], L1)
    s2 = core._slope_terms(rows[1], L2)
    a_norms = _a_norms(game)
    # One errstate for the run. The costs of a non-finite or overflowing
    # action are non-finite, and _record then checks the actions. The norms
    # square each entry: one that overflows only means the norm is far above
    # DIVERGENCE_NORM or tol. Neither warns.
    with np.errstate(over="ignore", invalid="ignore"):
        rec, posdef = _record(0, s1, ell1, s2, ell2, a_norms, cost_operands)
        steps = [rec]
        # (step, player) of the first effective Hessian that is not positive definite.
        uncertified = None if all(posdef) else (0, posdef.index(False) + 1)
        status, change, cross = "max_iters", None, None
        # ``bound`` is at least the largest of the four conjecture norms: a step
        # moves each by at most its change. The norms themselves are computed
        # only when the bound passes DIVERGENCE_NORM / 2, and at step 1.
        bound = math.inf
        for k in range(1, cfg.max_iters + 1):
            try:
                s1n, ell1n, s2n, ell2n, cross = _step(rows, blocks, s1, s2, cross)
                rec, posdef = _record(k, s1n, ell1n, s2n, ell2n, a_norms, cost_operands)
            except (SingularBestResponse, SingularComposite):
                status = "singular"
                break
            if uncertified is None and not all(posdef):
                uncertified = (k, posdef.index(False) + 1)
            change = _max_norm(s1n.L - s1.L, s2n.L - s2.L, ell1n - ell1, ell2n - ell2)
            s1, ell1, s2, ell2 = s1n, ell1n, s2n, ell2n
            steps.append(rec)
            bound += change
            if not bound <= DIVERGENCE_NORM / 2:  # NaN too
                bound = _max_norm(s1.L, s2.L, ell1, ell2)
                if bound > DIVERGENCE_NORM:
                    status = "diverged"
                    break
            # Converged when the iterate stops moving or is already a fixed pair
            # (the step-change metric lags fixed-point proximity by one step).
            if change < cfg.tol or max(rec.res1, rec.res2) < cfg.tol:
                status = "converged"
                break
    if uncertified is not None:
        first, player = uncertified
        warnings.warn(
            f"NotCertifiedMin: player {player}'s effective Hessian is not "
            f"positive definite at step {first}, the first such step of this "
            "run; recorded stationary points may not be minimizers",
            stacklevel=2,
        )
    return IterationTrace(tuple(steps), status, k, change)


# --- Trace CSV --------------------------------------------------------------

def _trace_columns(dims):
    """The IterationStep fields the trace CSV writes after "iter", in column
    order, each with its shape: an array's entries take one column each,
    row-major, named field_<row><col>; a scalar's column is the field's name."""
    d1, d2 = dims.d1, dims.d2
    return (("L1", (d2, d1)), ("ell1", (d2,)), ("L2", (d1, d2)), ("ell2", (d1,)),
            ("x1", (d1,)), ("x2", (d2,)), ("xhat1", (d1,)), ("xhat2", (d2,)),
            ("f1", ()), ("f2", ()), ("f_social", ()), ("res1", ()), ("res2", ()))


def trace_header(dims) -> list[str]:
    cols = ["iter"]
    for field, shape in _trace_columns(dims):
        stem = f"{field}_" if shape else field
        cols += [stem + "".join(map(str, idx)) for idx in np.ndindex(shape)]
    return cols


def write_trace_csv(trace: IterationTrace, dims, path) -> None:
    """Write the iteration trace with row-major matrices, 17 significant digits.

    Each row is one %-format: "%.17g" gives format(v, ".17g")'s digits, and
    the rows end in CRLF, as a csv.writer's do.
    """
    shape = trace.steps[0].L1.shape
    if shape != (dims.d2, dims.d1):
        raise DimensionMismatch(f"{dims} is not the trace's: its L1 has shape {shape}")
    fields = [field for field, _ in _trace_columns(dims)]
    header = trace_header(dims)
    row = "%d" + ",%.17g" * (len(header) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for st in trace.steps:
            values = np.concatenate([np.ravel(getattr(st, f)) for f in fields])
            fh.write(row % (st.iteration, *values.tolist()))
