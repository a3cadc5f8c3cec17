"""Conjecture best-response maps and their iteration.

The cross update maps one player's conjecture slope to the opponent's
consistent best-response slope; the composite update chains two cross steps
and is represented compactly by the blocks of boldM1/boldM2.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

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


def _cross(terms, i):
    """-P^{-T} Q^T: the opponent slope from player i's slope terms (P, Q)."""
    P, Q = terms
    return -_solve_checked(P.T, Q.T, SingularBestResponse, i)


def _linear(p, L):
    """a + L^T b: player p's linear term along its slope L, which both the
    opponent offset and the best response read."""
    return p.a + L.T @ p.b


def _offset(i, c, P):
    """-P^{-T} c: the opponent offset at player i's slope L, with c = _linear(p, L)."""
    return -_solve_checked(P.T, c, SingularBestResponse, i)


def _cross_offset(i, c, terms):
    """(_cross(terms, i), _offset(i, c, P)) from one LU of P^T, bit for bit."""
    P, Q = terms
    L_opp, ell_opp = _solve_checked(P.T, (Q.T, c), SingularBestResponse, i)
    return -L_opp, -ell_opp


def lft_cross(game: QuadraticGame, i: int, L_i):
    """Opponent slope consistent with player i's data given i's slope L_i."""
    L_i = np.asarray(L_i, dtype=float)
    return _cross(core._slope_terms(game.player(i), L_i), i)


def offset_cross(game: QuadraticGame, i: int, L_i):
    """Opponent affine offset consistent with player i's data at slope L_i."""
    p = game.player(i)
    L_i = np.asarray(L_i, dtype=float)
    return _offset(i, _linear(p, L_i), core._slope_terms(p, L_i)[0])


def composite_step(blocks: CompositeBlocks, i: int, L_i):
    """One composite update L_i -> (C_i + D_i L_i)(A_i + B_i L_i)^{-1}."""
    bA, bB, bC, bD = blocks.bold_blocks(i)
    L_i = np.asarray(L_i, dtype=float)
    num = bC + bD @ L_i
    # Right division: solve X (A + B L) = (C + D L) via the transposed system.
    return _solve_checked(bA + bB @ L_i, num.T, SingularComposite, i, trans=1).T


def _best_response(i, L, ell, terms, c):
    """(x, posdef): player i's stationary action at (L, ell), from the slope
    terms of L and c = _linear(p, L), and whether its effective Hessian is
    positive definite."""
    S = analysis._effective_hessian(L, terms)
    sol, posdef = _solve_sym_checked(S, c + terms[1].T @ ell, SingularBestResponse, i)
    return -sol, posdef


def best_response(game: QuadraticGame, i: int, conj: Conjecture):
    """Player i's optimal action under its conjecture (L, ell).

    Solves the stationarity condition of f_i(x_i, L x_i + ell); emits a
    NotCertifiedMin warning when the effective Hessian is not positive
    definite.
    """
    if conj.holder != i:
        raise DimensionMismatch(f"conjecture holder {conj.holder} != player {i}")
    p = game.player(i)
    x, posdef = _best_response(i, conj.L, conj.ell, core._slope_terms(p, conj.L),
                               _linear(p, conj.L))
    if not posdef:
        warnings.warn(
            f"NotCertifiedMin: player {i}'s effective Hessian is not positive "
            "definite; returned stationary point may not be a minimizer",
            stacklevel=2,
        )
    return x


def predict(conj: Conjecture, x_i):
    """The conjectured opponent action L x_i + ell."""
    x_i = np.asarray(x_i, dtype=float).reshape(-1)
    if x_i.shape[0] != conj.L.shape[1]:
        raise DimensionMismatch(
            f"action length {x_i.shape[0]} does not match conjecture "
            f"input dimension {conj.L.shape[1]}"
        )
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class IterationStep:
    """Snapshot of one iteration of the conjecture dynamics."""

    iteration: int
    L1: np.ndarray
    ell1: np.ndarray
    L2: np.ndarray
    ell2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    xhat1: np.ndarray
    xhat2: np.ndarray
    f1: float
    f2: float
    f_social: float
    res1: float
    res2: float


@dataclass(frozen=True)
class IterationTrace:
    steps: tuple[IterationStep, ...]
    status: str  # "converged" | "max_iters" | "diverged" | "singular"
    status_iter: int
    # Largest step change of the last completed step; None before the first.
    change: float | None = None

    @property
    def final(self) -> IterationStep:
        return self.steps[-1]

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _record(k, L1, ell1, L2, ell2, terms1, terms2, c1, c2, a_norms, cost_operands):
    """(step, posdef): step k of the trace, read from the slope terms of L1
    and L2 and their linear terms c_i = _linear(p_i, L_i), and the posdef
    flags of the two effective Hessians.

    ``a_norms`` is _a_norms(game) and ``cost_operands`` is
    core._cost_operands(game, M1, M2). The actions are checked for
    finiteness, as eval_cost would; shapes are known.
    """
    x1, posdef1 = _best_response(1, L1, ell1, terms1, c1)
    x2, posdef2 = _best_response(2, L2, ell2, terms2, c2)
    f1, f2 = core._costs(cost_operands, x1, x2)
    # A non-finite action makes both costs non-finite, so the actions are
    # read only then; finite actions whose cost overflows are recorded.
    if not (math.isfinite(f1) and math.isfinite(f2)):
        for name, x in (("x1", x1), ("x2", x2)):
            if not np.isfinite(x).all():
                raise DimensionMismatch(f"{name} contains non-finite entries")
    res1, res2 = _residual_norms(*_residuals(L1, L2, terms1, terms2), a_norms)
    step = IterationStep(
        iteration=k, L1=L1, ell1=ell1, L2=L2, ell2=ell2,
        x1=x1, x2=x2, xhat1=L2 @ x2 + ell2, xhat2=L1 @ x1 + ell1,
        f1=f1, f2=f2, f_social=f1 + f2, res1=res1, res2=res2,
    )
    return step, (posdef1, posdef2)


def _max_norm(*arrays):
    """max(np.linalg.norm(m) for m in arrays), bit for bit: sqrt is monotone."""
    return math.sqrt(max(map(core._sq_norm, arrays)))


def _step(game, blocks, L1, L2, terms1, terms2, cross):
    """One map step: the new slopes, the offsets they give, their terms and
    linear terms and, in cross mode, the next step's slopes.

    Cross mode takes the new slopes from ``cross``, the pair the previous
    step returned, or at step 1 (``cross`` None) reads them off the held
    terms of L1 and L2; composite mode (``blocks`` given) applies
    composite_step.
    """
    if blocks is None:
        L1n, L2n = cross or (_cross(terms2, 2), _cross(terms1, 1))
    else:
        L1n, L2n = composite_step(blocks, 1, L1), composite_step(blocks, 2, L2)
    terms1n = core._slope_terms(game.p1, L1n)
    terms2n = core._slope_terms(game.p2, L2n)
    c1n, c2n = _linear(game.p1, L1n), _linear(game.p2, L2n)
    # Offsets follow the refreshed slopes so each (L, ell) pair stays
    # best-response consistent within the step. In cross mode the one LU of
    # each P_i^T that gives the offset also gives the next step's slope.
    if blocks is None:
        L1x, ell1n = _cross_offset(2, c2n, terms2n)
        L2x, ell2n = _cross_offset(1, c1n, terms1n)
        cross = (L1x, L2x)
    else:
        ell1n = _offset(2, c2n, terms2n[0])
        ell2n = _offset(1, c1n, terms1n[0])
        cross = None
    return L1n, ell1n, L2n, ell2n, terms1n, terms2n, c1n, c2n, cross


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
        L1, ell1 = conj1.L.copy(), conj1.ell.copy()
        L2, ell2 = conj2.L.copy(), conj2.ell.copy()

    # Each step forms the terms (P_i, Q_i) and the linear term a_i + L_i^T b_i
    # of its two new slopes once; the offsets, the record and the next step's
    # cross map read them.
    terms1 = core._slope_terms(game.p1, L1)
    terms2 = core._slope_terms(game.p2, L2)
    c1, c2 = _linear(game.p1, L1), _linear(game.p2, L2)
    a_norms = _a_norms(game)
    rec, posdef = _record(0, L1, ell1, L2, ell2, terms1, terms2, c1, c2,
                          a_norms, cost_operands)
    steps = [rec]
    # (step, player) of the first effective Hessian that is not positive definite.
    uncertified = None if all(posdef) else (0, posdef.index(False) + 1)
    status, change, cross = "max_iters", None, None
    for k in range(1, cfg.max_iters + 1):
        try:
            L1n, ell1n, L2n, ell2n, terms1, terms2, c1, c2, cross = _step(
                game, blocks, L1, L2, terms1, terms2, cross)
            rec, posdef = _record(k, L1n, ell1n, L2n, ell2n, terms1, terms2,
                                  c1, c2, a_norms, cost_operands)
        except (SingularBestResponse, SingularComposite):
            status = "singular"
            break
        if uncertified is None and not all(posdef):
            uncertified = (k, posdef.index(False) + 1)
        change = _max_norm(L1n - L1, L2n - L2, ell1n - ell1, ell2n - ell2)
        L1, ell1, L2, ell2 = L1n, ell1n, L2n, ell2n
        steps.append(rec)
        if _max_norm(L1, L2, ell1, ell2) > DIVERGENCE_NORM:
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

def _flat_headers(prefix, shape):
    if len(shape) == 1:
        return [f"{prefix}_{r}" for r in range(shape[0])]
    return [f"{prefix}_{r}{c}" for r in range(shape[0]) for c in range(shape[1])]


def trace_header(dims) -> list[str]:
    cols = ["iter"]
    cols += _flat_headers("L1", (dims.d2, dims.d1))
    cols += _flat_headers("ell1", (dims.d2,))
    cols += _flat_headers("L2", (dims.d1, dims.d2))
    cols += _flat_headers("ell2", (dims.d1,))
    cols += _flat_headers("x1", (dims.d1,))
    cols += _flat_headers("x2", (dims.d2,))
    cols += _flat_headers("xhat1", (dims.d1,))
    cols += _flat_headers("xhat2", (dims.d2,))
    cols += ["f1", "f2", "f_social", "res1", "res2"]
    return cols


def _fmt(x):
    return format(float(x), ".17g")


def write_trace_csv(trace: IterationTrace, dims, path) -> None:
    """Write the iteration trace with row-major matrices, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(dims))
        for st in trace.steps:
            row = [st.iteration]
            for arr in (st.L1, st.ell1, st.L2, st.ell2,
                        st.x1, st.x2, st.xhat1, st.xhat2):
                row += [_fmt(v) for v in np.asarray(arr).reshape(-1)]
            row += [_fmt(st.f1), _fmt(st.f2), _fmt(st.f_social),
                    _fmt(st.res1), _fmt(st.res2)]
            writer.writerow(row)
