"""Game and conjecture data model, cost evaluation, and block-matrix assembly.

A two-player quadratic game is described by each player's cost

    f_i(x_i, x_{-i}) = 1/2 [x_i; x_{-i}]^T [[A_i, B_i^T], [B_i, D_i]] [x_i; x_{-i}]
                       + [a_i; b_i]^T [x_i; x_{-i}]

with A_i of shape d_i x d_i, B_i of shape d_{-i} x d_i and D_i of shape
d_{-i} x d_{-i}.  The composite matrices M1, M2 and the products
boldM1 = M2^{-T} M1, boldM2 = M1^{-T} M2 drive everything downstream:
conjecture best responses are linear fractional transformations represented
by these matrices.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ANotPositiveDefinite, DimensionMismatch, MSingular

# M1/M2 count as singular below this 1-norm rcond estimate (LAPACK dgecon).
RCOND_SINGULAR = 1e-12
# Every other guard but Y1's (equilibrium.Y1_RCOND_MIN) counts its matrix as
# singular below this dgecon rcond estimate.
RCOND_MIN = 1e-14
# Minimum eigenvalue threshold for A_i > 0.
POSDEF_EIG_MIN = 1e-10
# Relative asymmetry above which symmetrization of A/D emits a warning.
ASYM_WARN = 1e-8


def _as_matrix(value, rows, cols, name):
    m = np.asarray(value, dtype=float)
    if m.shape != (rows, cols):
        raise DimensionMismatch(
            f"{name} must have shape ({rows}, {cols}), got {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


def _as_vector(value, n, name):
    v = np.asarray(value, dtype=float).reshape(-1)
    if v.shape != (n,):
        raise DimensionMismatch(f"{name} must have length {n}, got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return v


def _symmetrize(m, name):
    sym = 0.5 * (m + m.T)
    denom = max(np.linalg.norm(m), 1.0)
    if np.linalg.norm(m - m.T) / denom > ASYM_WARN:
        warnings.warn(
            f"{name} is not symmetric (relative asymmetry above {ASYM_WARN:g}); "
            "using its symmetric part",
            stacklevel=3,
        )
    return sym


@dataclass(frozen=True)
class Dims:
    """Action-space dimensions of the two players."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatch("dimensions must be >= 1")

    @property
    def d(self):
        return self.d1 + self.d2


@dataclass(frozen=True)
class PlayerCost:
    """One player's quadratic cost blocks.

    Shapes follow the own-dimension-first convention: for the player with own
    dimension ``d_own`` and opponent dimension ``d_opp``, A is d_own x d_own,
    B is d_opp x d_own, D is d_opp x d_opp, a has length d_own, b length d_opp.
    A and D are symmetrized on construction.
    """

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @classmethod
    def create(cls, A, B, D, a, b, d_own, d_opp, player):
        A = _symmetrize(_as_matrix(A, d_own, d_own, f"A{player}"), f"A{player}")
        B = _as_matrix(B, d_opp, d_own, f"B{player}")
        D = _symmetrize(_as_matrix(D, d_opp, d_opp, f"D{player}"), f"D{player}")
        a = _as_vector(a, d_own, f"a{player}")
        b = _as_vector(b, d_opp, f"b{player}")
        return cls(A=A, B=B, D=D, a=a, b=b)


@dataclass(frozen=True)
class QuadraticGame:
    """A validated-on-demand two-player quadratic game."""

    dims: Dims
    p1: PlayerCost
    p2: PlayerCost

    @classmethod
    def create(cls, d1, d2, p1_blocks, p2_blocks):
        """Build a game from raw (A, B, D, a, b) tuples for each player."""
        dims = Dims(d1, d2)
        p1 = PlayerCost.create(*p1_blocks, d_own=d1, d_opp=d2, player=1)
        p2 = PlayerCost.create(*p2_blocks, d_own=d2, d_opp=d1, player=2)
        return cls(dims=dims, p1=p1, p2=p2)

    def player(self, i):
        if i == 1:
            return self.p1
        if i == 2:
            return self.p2
        raise DimensionMismatch(f"player index must be 1 or 2, got {i}")


@dataclass(frozen=True)
class Conjecture:
    """Affine opponent model held by one player: x_opp = L x_own + ell."""

    holder: int
    L: np.ndarray
    ell: np.ndarray

    @classmethod
    def create(cls, holder, L, ell, dims: Dims):
        if holder not in (1, 2):
            raise DimensionMismatch(f"holder must be 1 or 2, got {holder}")
        d_own = dims.d1 if holder == 1 else dims.d2
        d_opp = dims.d2 if holder == 1 else dims.d1
        L = _as_matrix(L, d_opp, d_own, f"L{holder}")
        ell = _as_vector(ell, d_opp, f"ell{holder}")
        return cls(holder=holder, L=L, ell=ell)


@dataclass(frozen=True)
class CompositeBlocks:
    """M1, M2 and their cross products boldM1 = M2^{-T} M1, boldM2 = M1^{-T} M2.

    boldM1 partitions as [[A1, B1], [C1, D1]] with A1 of shape d1 x d1;
    boldM2 partitions as [[D2, C2], [B2, A2]] with D2 of shape d1 x d1.
    """

    dims: Dims
    M1: np.ndarray
    M2: np.ndarray
    boldM1: np.ndarray
    boldM2: np.ndarray

    def bold_blocks(self, i):
        """(bA_i, bB_i, bC_i, bD_i): views of boldM_i for the player-i composite update."""
        d1 = self.dims.d1
        if i == 1:
            m = self.boldM1
            return m[:d1, :d1], m[:d1, d1:], m[d1:, :d1], m[d1:, d1:]
        m = self.boldM2
        return m[d1:, d1:], m[d1:, :d1], m[:d1, d1:], m[:d1, :d1]


def _stack(top_left, top_right, bottom_left, bottom_right):
    """The 2x2 block matrix [[top_left, top_right], [bottom_left, bottom_right]],
    assembled by slice assignment into one new array."""
    r, c = top_left.shape
    out = np.empty((r + bottom_left.shape[0], c + top_right.shape[1]))
    out[:r, :c] = top_left
    out[:r, c:] = top_right
    out[r:, :c] = bottom_left
    out[r:, c:] = bottom_right
    return out


def stacked_m1(game: QuadraticGame) -> np.ndarray:
    p1 = game.p1
    return _stack(p1.A, p1.B.T, p1.B, p1.D)


def stacked_m2(game: QuadraticGame) -> np.ndarray:
    p2 = game.p2
    return _stack(p2.D, p2.B, p2.B.T, p2.A)


def _lu_rcond(a):
    """(lu, piv, rcond): LAPACK dgetrf of square ``a`` and dgecon's 1-norm rcond.

    rcond is Higham's estimate, 0.0 when ``a`` is exactly singular; solve with dgetrs.
    """
    lu, piv, info = lapack.dgetrf(a)
    rcond = lapack.dgecon(lu, lapack.dlange("1", a))[0] if info == 0 else 0.0
    return lu, piv, rcond


def _solve_checked(a, b, error, *args, rcond_min=RCOND_MIN, trans=0):
    """Solve ``a x = b`` (``a^T x = b`` if ``trans=1``) with one LU of ``a``.

    ``b`` may be a tuple of right-hand sides: the same LU then solves each
    with its own dgetrs, and the solutions come back as a tuple.
    Raises ``error(*args)`` when the 1-norm rcond estimate is below rcond_min.
    """
    lu, piv, rcond = _lu_rcond(a)
    if rcond < rcond_min:
        raise error(*args)
    if isinstance(b, tuple):
        return tuple(lapack.dgetrs(lu, piv, rhs, trans=trans)[0] for rhs in b)
    return lapack.dgetrs(lu, piv, b, trans=trans)[0]


def _solve_sym_checked(a, b, error, *args):
    """Solve the symmetric system ``a x = b`` with one factorization: (x, posdef).

    Tries a Cholesky factorization (dpotrf) first. When it succeeds, ``a`` is
    positive definite (posdef True), dpocon's 1-norm rcond estimate is held to
    RCOND_MIN and dpotrs solves. Otherwise posdef is False and the solve is
    _solve_checked's LU. Either way raises ``error(*args)`` below RCOND_MIN.
    """
    c, info = lapack.dpotrf(a)
    if info != 0:
        return _solve_checked(a, b, error, *args), False
    if lapack.dpocon(c, lapack.dlange("1", a))[0] < RCOND_MIN:
        raise error(*args)
    return lapack.dpotrs(c, b)[0], True


def _posdef(m):
    """True when LAPACK dpotrf factors the symmetric matrix ``m`` (Cholesky)."""
    return bool(lapack.dpotrf(m)[1] == 0)


def _factor_m(game: QuadraticGame):
    """Check A_i > 0, then factor M1 and M2: (M, lu, piv) for each.

    A_i passes when A_i - POSDEF_EIG_MIN I has a Cholesky factor; only when it
    has none does eigvalsh decide (min eigenvalue <= POSDEF_EIG_MIN fails) and
    give the value ANotPositiveDefinite reports. Then raises MSingular below
    RCOND_SINGULAR.
    """
    for i in (1, 2):
        A = game.player(i).A
        if _posdef(A - POSDEF_EIG_MIN * np.eye(A.shape[0])):
            continue
        min_eig = np.linalg.eigvalsh(A).min()
        if min_eig <= POSDEF_EIG_MIN:
            raise ANotPositiveDefinite(i, min_eig)
    factors = []
    for i, m in ((1, stacked_m1(game)), (2, stacked_m2(game))):
        lu, piv, rc = _lu_rcond(m)
        if rc < RCOND_SINGULAR:
            raise MSingular(i, rc)
        factors.append((m, lu, piv))
    return factors


def validate_game(game: QuadraticGame) -> QuadraticGame:
    """Check A_i > 0 and invertibility of M1, M2; return the game unchanged."""
    _factor_m(game)
    return game


def eval_cost(game: QuadraticGame, i: int, x1, x2) -> float:
    """Player i's quadratic cost at the joint action (x1, x2)."""
    x1 = _as_vector(x1, game.dims.d1, "x1")
    x2 = _as_vector(x2, game.dims.d2, "x2")
    game.player(i)  # rejects an index other than 1 or 2
    operands = _cost_operands(game, stacked_m1(game), stacked_m2(game))
    return _costs(operands, x1, x2)[i - 1]


def _cost_operands(game: QuadraticGame, M1, M2):
    """(MM, G) for _costs: the stacked [M1; M2] and the rows g1 = [a1; b1] and
    g2 = [b2; a2], the linear terms in the joint coordinates z = [x1; x2]."""
    p1, p2 = game.p1, game.p2
    G = np.stack((np.concatenate((p1.a, p1.b)), np.concatenate((p2.b, p2.a))))
    return np.concatenate((M1, M2)), G


def _costs(operands, x1, x2):
    """(f1, f2) at the joint action z = [x1; x2] from one product of the
    stacked [M1; M2] with z: f_i = z . (M_i z / 2 + g_i).

    ``operands`` is _cost_operands(game, M1, M2). The actions are not checked:
    a non-finite entry makes both costs non-finite, and an overflow gives an
    infinite cost, each without a floating-point warning.
    """
    MM, G = operands
    z = np.concatenate((x1, x2))
    with np.errstate(invalid="ignore", over="ignore"):
        f1, f2 = (0.5 * MM.dot(z).reshape(2, -1) + G).dot(z).tolist()
    return f1, f2


def assemble_blocks(game: QuadraticGame) -> CompositeBlocks:
    """Form M1, M2, boldM1 = M2^{-T} M1 and boldM2 = M1^{-T} M2.

    Validates the game as validate_game does, in the same pass.
    """
    (m1, lu1, piv1), (m2, lu2, piv2) = _factor_m(game)
    bold1 = lapack.dgetrs(lu2, piv2, m1, trans=1)[0]
    bold2 = lapack.dgetrs(lu1, piv1, m2, trans=1)[0]
    return CompositeBlocks(dims=game.dims, M1=m1, M2=m2, boldM1=bold1, boldM2=bold2)


def _slope_terms(p: PlayerCost, L):
    """(P, Q) = (A + B^T L, B + D L): the two products every per-slope quantity reads.

    The cross map is -P^{-T} Q^T, the effective Hessian sym(P + L^T Q), the
    best-response right-hand side a + L^T b + Q^T ell and the coupled
    residual L_opp^T P + Q.
    """
    return p.A + p.B.T @ L, p.B + p.D @ L


def _residuals(L1, L2, terms1, terms2):
    """(R1, R2) = (L2^T P1 + Q1, L1^T P2 + Q2) from each slope's terms."""
    (P1, Q1), (P2, Q2) = terms1, terms2
    return L2.T @ P1 + Q1, L1.T @ P2 + Q2


def _a_norms(game: QuadraticGame):
    """(||A_1||_F, ||A_2||_F): the scales of the residual norms."""
    return float(np.linalg.norm(game.p1.A)), float(np.linalg.norm(game.p2.A))


def _sq_norm(m):
    """The sum of squares of the entries of ``m``, formed as np.linalg.norm(m)
    forms it before its sqrt: the dot product of the ravel-order entries."""
    v = m.ravel(order="K")
    return v.dot(v)


def _residual_norms(r1, r2, a_norms):
    """Frobenius norms of the residuals r1, r2, relative to a_norms = _a_norms(game).

    Bit for bit np.linalg.norm(r_i) / a_norms[i - 1]: sqrt is correctly rounded.
    """
    return math.sqrt(_sq_norm(r1)) / a_norms[0], math.sqrt(_sq_norm(r2)) / a_norms[1]


def riccati_residual(game: QuadraticGame, L1, L2):
    """Residual matrices of the coupled conjecture equations.

    R1 = L2^T (A1 + B1^T L1) + (B1 + D1 L1)   (shape d2 x d1)
    R2 = L1^T (A2 + B2^T L2) + (B2 + D2 L2)   (shape d1 x d2)
    """
    dims = game.dims
    L1 = _as_matrix(L1, dims.d2, dims.d1, "L1")
    L2 = _as_matrix(L2, dims.d1, dims.d2, "L2")
    return _residuals(L1, L2, _slope_terms(game.p1, L1), _slope_terms(game.p2, L2))


def riccati_residual_norms(game: QuadraticGame, L1, L2):
    """Frobenius norms of the coupled residuals, relative to ||A_i||_F."""
    return _residual_norms(*riccati_residual(game, L1, L2), _a_norms(game))


# --- Game JSON format -------------------------------------------------------

_GAME_KEYS = {"d1", "d2", "player1", "player2"}
_PLAYER_KEYS = {"A", "B", "D", "a", "b"}


def game_to_dict(game: QuadraticGame) -> dict:
    def player(p):
        return {
            "A": p.A.tolist(),
            "B": p.B.tolist(),
            "D": p.D.tolist(),
            "a": p.a.tolist(),
            "b": p.b.tolist(),
        }

    return {
        "d1": game.dims.d1,
        "d2": game.dims.d2,
        "player1": player(game.p1),
        "player2": player(game.p2),
    }


def game_from_dict(data: dict) -> QuadraticGame:
    if not isinstance(data, dict):
        raise DimensionMismatch("game JSON must be an object")
    unknown = set(data) - _GAME_KEYS
    if unknown:
        raise DimensionMismatch(f"unknown game keys: {sorted(unknown)}")
    missing = _GAME_KEYS - set(data)
    if missing:
        raise DimensionMismatch(f"missing game keys: {sorted(missing)}")
    for key in ("player1", "player2"):
        pdata = data[key]
        if not isinstance(pdata, dict):
            raise DimensionMismatch(f"{key} must be an object")
        unknown = set(pdata) - _PLAYER_KEYS
        if unknown:
            raise DimensionMismatch(f"unknown {key} keys: {sorted(unknown)}")
        missing = _PLAYER_KEYS - set(pdata)
        if missing:
            raise DimensionMismatch(f"missing {key} keys: {sorted(missing)}")
    p1, p2 = data["player1"], data["player2"]
    return QuadraticGame.create(
        int(data["d1"]),
        int(data["d2"]),
        (p1["A"], p1["B"], p1["D"], p1["a"], p1["b"]),
        (p2["A"], p2["B"], p2["D"], p2["a"], p2["b"]),
    )


def _write_json(path, data) -> None:
    """Write ``data`` to ``path`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_game(game: QuadraticGame, path) -> None:
    _write_json(path, game_to_dict(game))


def load_game(path) -> QuadraticGame:
    with open(path) as fh:
        return game_from_dict(json.load(fh))
