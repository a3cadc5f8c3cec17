"""Constructors for quadratic games: unrolled LQ dynamic games, scalar games,
seeded random recipes, and the scalar Moebius fixed-point analyzer."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (QuadraticGame, _as_array, _as_matrix, _as_vector, _checked_dim,
                   _checked_keys, _min_eig, assemble_blocks)
from .errors import ComplexFixedPoints, DegenerateScalar, DimensionMismatch
from .stability import MARGINAL_BAND

_PSD_TOL = 1e-10
# The most entries an unrolled input map may hold: n (T + 1) rows by m_i T
# columns (_unroll_input_map), 80 MB of float64. LqSpec.create refuses a
# horizon T beyond it, before anything is unrolled.
LQ_UNROLL_MAX_ENTRIES = 10**7

# The shape of each array entry of an LqSpec, in its state dimension n (F's
# order) and its control dimensions m1, m2 (the column counts of G1, G2).
_LQ_SHAPES = {
    "F": ("n", "n"), "G1": ("n", "m1"), "G2": ("n", "m2"),
    "Q1": ("n", "n"), "Q2": ("n", "n"), "Q1f": ("n", "n"), "Q2f": ("n", "n"),
    "R1": ("m1", "m1"), "R2": ("m2", "m2"), "R12": ("m1", "m2"), "R21": ("m2", "m1"),
    "z0": ("n",),
}


@dataclass(frozen=True)
class LqSpec:
    """Finite-horizon open-loop LQ dynamic game description.

    Dynamics z_{t+1} = F z_t + G1 u_{1,t} + G2 u_{2,t}; stage costs
    1/2 z^T Q_i z + 1/2 u_i^T R_i u_i + u_i^T R_{i,-i} u_{-i}, terminal cost
    1/2 z_T^T Q_{i,f} z_T.
    """

    F: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    Q1f: np.ndarray
    Q2f: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    R12: np.ndarray
    R21: np.ndarray
    z0: np.ndarray
    T: int

    @classmethod
    def create(cls, T, **entries):
        """The spec of horizon T and the array ``entries`` _LQ_SHAPES names, each
        checked against its shape there by core._as_matrix or core._as_vector,
        and T by core._checked_dim: a null, non-finite or mis-shaped entry, or a
        T that is no integer, raises DimensionMismatch naming it."""
        _checked_keys(entries, _LQ_SHAPES.keys(), "LqSpec", "LqSpec")
        F = _as_array(entries["F"], "F")
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise DimensionMismatch(f"F must be a square matrix, got shape {F.shape}")
        size = {"n": F.shape[0]}
        for key, m in (("G1", "m1"), ("G2", "m2")):
            G = _as_array(entries[key], key)
            if G.ndim != 2:
                raise DimensionMismatch(f"{key} must be a matrix, got shape {G.shape}")
            size[m] = G.shape[1]
        arrays = {}
        for key, shape in _LQ_SHAPES.items():
            check = _as_matrix if len(shape) == 2 else _as_vector
            arrays[key] = check(entries[key], *(size[s] for s in shape), key)
        spec = cls(T=_checked_dim(T, "T"), **arrays)
        if spec.T < 1:
            raise DimensionMismatch("horizon T must be >= 1")
        unrolled = spec.n * (spec.T + 1) * max(spec.m1, spec.m2) * spec.T
        if unrolled > LQ_UNROLL_MAX_ENTRIES:
            raise DimensionMismatch(
                f"horizon T = {spec.T} unrolls to an input map of {unrolled} entries, "
                f"above LQ_UNROLL_MAX_ENTRIES = {LQ_UNROLL_MAX_ENTRIES}")
        for name in ("R1", "R2"):
            m = getattr(spec, name)
            if _min_eig(0.5 * (m + m.T)) <= 0:
                raise DimensionMismatch(f"{name} must be positive definite")
        for name in ("Q1", "Q2", "Q1f", "Q2f"):
            m = getattr(spec, name)
            if np.linalg.norm(m - m.T) > _PSD_TOL * max(1.0, np.linalg.norm(m)):
                raise DimensionMismatch(f"{name} must be symmetric")
            if _min_eig(0.5 * (m + m.T)) < -_PSD_TOL:
                raise DimensionMismatch(f"{name} must be positive semidefinite")
        return spec

    @property
    def n(self):
        return self.F.shape[0]

    @property
    def m1(self):
        return self.G1.shape[1]

    @property
    def m2(self):
        return self.G2.shape[1]


def _unroll_input_map(powers, G):
    """Block lower-triangular map from stacked controls to stacked states.

    Row t (of T+1) and column k (of T) hold F^{t-1-k} G for t >= k+1, from
    ``powers`` = [F^0, ..., F^T]: column k stacks F^0 G, F^1 G, ... from row k+1.
    """
    T = len(powers) - 1
    n, m = G.shape
    FG = np.vstack([p @ G for p in powers[:T]])
    W = np.zeros((n * (T + 1), m * T))
    for k in range(T):
        W[(k + 1) * n:, k * m:(k + 1) * m] = FG[:(T - k) * n]
    return W


def build_lq_game(spec: LqSpec) -> QuadraticGame:
    """Unroll an LQ dynamic game into a static quadratic game in the stacked
    open-loop controls (d1 = m1*T, d2 = m2*T)."""
    T, n = spec.T, spec.n
    # F^t as np.linalg.matrix_power forms it for t <= 3: F^{t-1} @ F.
    powers = [np.eye(n), spec.F]
    for _ in range(T - 1):
        powers.append(powers[-1] @ spec.F)
    W1 = _unroll_input_map(powers, spec.G1)
    W2 = _unroll_input_map(powers, spec.G2)
    z = np.vstack(powers) @ spec.z0

    def player(W, W_opp, Q, Qf, R, R_cross):
        """(A, B, D, a, b) of the player with control map W and costs Q, Qf, R, R_cross."""
        bQ = np.kron(np.eye(T + 1), Q)
        bQ[-n:, -n:] = Qf
        WQ, WQ_opp = W.T @ bQ, W_opp.T @ bQ
        return (np.kron(np.eye(T), R) + WQ @ W,
                (np.kron(np.eye(T), R_cross) + WQ @ W_opp).T,
                WQ_opp @ W_opp, WQ @ z, WQ_opp @ z)

    return QuadraticGame.create(
        spec.m1 * T, spec.m2 * T,
        player(W1, W2, spec.Q1, spec.Q1f, spec.R1, spec.R12),
        player(W2, W1, spec.Q2, spec.Q2f, spec.R2, spec.R21),
    )


@dataclass(frozen=True)
class ScalarSpec:
    """Per-player scalar cost parameters.

    q = own-quadratic, r = cross, s = opponent-quadratic, w = own-linear,
    v = opponent-linear.
    """

    q1: float
    r1: float
    s1: float
    w1: float = 0.0
    v1: float = 0.0
    q2: float = None
    r2: float = None
    s2: float = None
    w2: float = 0.0
    v2: float = 0.0

    def __post_init__(self):
        # A one-player spec doubles as a symmetric game.
        if self.q2 is None:
            object.__setattr__(self, "q2", self.q1)
        if self.r2 is None:
            object.__setattr__(self, "r2", self.r1)
        if self.s2 is None:
            object.__setattr__(self, "s2", self.s1)


def build_scalar_game(spec: ScalarSpec) -> QuadraticGame:
    """1x1 quadratic game from scalar parameters; requires q s - r^2 != 0."""
    for i, (q, r, s) in ((1, (spec.q1, spec.r1, spec.s1)),
                         (2, (spec.q2, spec.r2, spec.s2))):
        det = q * s - r * r
        if abs(det) < 1e-12 * max(1.0, q * q, r * r, s * s):
            raise DegenerateScalar(f"player {i}: q*s - r^2 = {det:g} is zero")
    return QuadraticGame.create(
        1, 1,
        ([[spec.q1]], [[spec.r1]], [[spec.s1]], [spec.w1], [spec.v1]),
        ([[spec.q2]], [[spec.r2]], [[spec.s2]], [spec.w2], [spec.v2]),
    )


def random_game(d1, d2, recipe="paper7ex2", seed=0, lo=-1.0, hi=1.0) -> QuadraticGame:
    """Deterministic seeded game construction.

    Recipes:
      * "paper7ex1": fixed 2x3 benchmark game (exact constants; d1=2, d2=3).
      * "paper7ex2": scaled-identity A and D (13I, -0.2I / -0.1I), unit
        linear terms for player 2, B entries uniform on (-1, 1).
      * "uniform": like paper7ex2 but B entries uniform on (lo, hi) with the
        identity scale adapted to keep the game well conditioned.

    Only "uniform" takes bounds; the paper recipes raise ValueError for any
    (lo, hi) other than (-1, 1), and "uniform" for bounds whose range
    hi - lo is not finite.  The stream order is fixed: B1 is drawn first
    (row-major), then B2.
    """
    if recipe in ("paper7ex1", "paper7ex2") and (lo, hi) != (-1.0, 1.0):
        raise ValueError(f"recipe {recipe!r} fixes lo, hi = -1, 1; got {lo:g}, {hi:g}")
    if recipe == "paper7ex1":
        if (d1, d2) != (2, 3):
            raise DimensionMismatch("paper7ex1 recipe is defined for d1=2, d2=3")
        return example1_game()
    rng = np.random.default_rng(seed)
    if recipe == "paper7ex2":
        scale = 13.0
    elif recipe == "uniform":
        if not np.isfinite(hi - lo):  # numpy.random would raise OverflowError
            raise ValueError(f"uniform bounds need a finite hi - lo; got {lo:g}, {hi:g}")
        scale = 1.0 + 2.0 * max(abs(lo), abs(hi)) * max(d1, d2)
    else:
        raise ValueError(f"unknown recipe {recipe!r}")
    B1 = rng.uniform(lo, hi, size=(d2, d1))
    B2 = rng.uniform(lo, hi, size=(d1, d2))
    A1 = scale * np.eye(d1)
    D1 = -0.2 * np.eye(d2)
    A2 = scale * np.eye(d2)
    D2 = -0.1 * np.eye(d1)
    return QuadraticGame.create(
        d1, d2,
        (A1, B1, D1, np.zeros(d1), np.zeros(d2)),
        (A2, B2, D2, np.ones(d2), np.ones(d1)),
    )


def example1_game() -> QuadraticGame:
    """The fixed 2x3 benchmark game with printed constants."""
    A1 = np.eye(2)
    B1 = np.array([[-0.1, 0.2], [-0.5, -0.2], [-0.4, -0.4]])
    D1 = -0.2 * np.eye(3)
    a1 = np.zeros(2)
    b1 = np.zeros(3)
    A2 = np.eye(3)
    B2 = np.array([[0.3, 0.2, 0.1], [0.0, 0.1, -0.2]])
    D2 = -0.1 * np.eye(2)
    a2 = np.ones(3)
    b2 = np.ones(2)
    return QuadraticGame.create(2, 3, (A1, B1, D1, a1, b1), (A2, B2, D2, a2, b2))


@dataclass(frozen=True)
class MobiusFixedPoint:
    L: float
    xi_magnitude: float
    classification: str  # "stable" | "unstable" | "marginal"


@dataclass(frozen=True)
class MobiusResult:
    records: tuple[MobiusFixedPoint, ...]
    infinite_root: bool = False


def _classify(xi_mag):
    if xi_mag < 1.0 - MARGINAL_BAND:
        return "stable"
    if xi_mag > 1.0 + MARGINAL_BAND:
        return "unstable"
    return "marginal"


def mobius_fixed_points(game: QuadraticGame) -> MobiusResult:
    """Fixed points of the scalar composite map via the quadratic formula.

    With boldM1 = [[m11, m12], [m21, m22]], fixed slopes v solve
    m12 v^2 + (m11 - m22) v - m21 = 0; the local multiplier at a root is
    xi = (m22 - m12 v) / (m11 + m12 v).
    """
    if game.dims.d1 != 1 or game.dims.d2 != 1:
        raise DimensionMismatch("mobius_fixed_points requires a scalar game")
    bm = assemble_blocks(game).boldM1
    m11, m12 = bm[0, 0], bm[0, 1]
    m21, m22 = bm[1, 0], bm[1, 1]
    scale = max(abs(m11), abs(m12), abs(m21), abs(m22), 1e-300)

    def record(v):
        xi = abs((m22 - m12 * v) / (m11 + m12 * v))
        return MobiusFixedPoint(L=float(v), xi_magnitude=float(xi),
                                classification=_classify(xi))

    if abs(m12) < 1e-14 * scale:
        # Degenerate quadratic: the map is affine with at most one finite
        # fixed point; the second fixed point sits at infinity.
        if abs(m11 - m22) < 1e-14 * scale:
            raise DegenerateScalar("composite map is the identity on slopes")
        return MobiusResult((record(m21 / (m11 - m22)),), infinite_root=True)
    disc = (m11 - m22) ** 2 + 4.0 * m12 * m21
    if disc < 0:
        raise ComplexFixedPoints(
            "scalar composite map has complex fixed points (elliptic case)"
        )
    root = np.sqrt(disc)
    v_a = (-(m11 - m22) + root) / (2.0 * m12)
    v_b = (-(m11 - m22) - root) / (2.0 * m12)
    recs = sorted((record(v_a), record(v_b)), key=lambda r: r.xi_magnitude)
    return MobiusResult(tuple(recs))
