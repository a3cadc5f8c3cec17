"""Game data model, conjecture checks, cost evaluation, and block-matrix assembly.

A two-player quadratic game is described by each player's cost

    f_i(x_i, x_{-i}) = 1/2 [x_i; x_{-i}]^T [[A_i, B_i^T], [B_i, D_i]] [x_i; x_{-i}]
                       + [a_i; b_i]^T [x_i; x_{-i}]

with A_i of shape d_i x d_i, B_i of shape d_{-i} x d_i and D_i of shape
d_{-i} x d_{-i}.  The composite matrices M1, M2 and boldM1 = M2^{-T} M1
drive everything downstream: conjecture best responses are linear fractional
transformations represented by the blocks of boldM1; player 2's M1^{-T} M2
is boldM1^{-1}, as both M_i are symmetric.
"""

import json
import math
import os
import warnings
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import NamedTuple

import numpy as np

from .errors import (ANotPositiveDefinite, DimensionMismatch, EigFailure, MSingular,
                     SingularBestResponse)


def _load_lapack():
    """scipy's compiled LAPACK module, scipy.linalg._flapack, loaded by itself.

    Importing scipy.linalg would also load scipy's array-API layer, which loads
    numpy.f2py, numpy.testing, numpy.ma and numpy.random: about 200 ms a command.
    find_spec finds scipy's directory without running scipy/__init__.py; on pip's
    Linux and macOS wheels the extension loads without it (README "Install"). The
    module is loaded under its real name, which CPython enters in sys.modules, so
    a later ``import scipy.linalg`` reuses it: scipy.linalg.lapack.dgees is
    lapack.dgees."""
    spec = find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(spec.submodule_search_locations[0], "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is not in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_lapack()

# M1/M2 count as singular below this 1-norm rcond estimate (LAPACK dgecon).
RCOND_SINGULAR = 1e-12
# Every other guard but Y1's (equilibrium.Y1_RCOND_MIN) counts its matrix as
# singular below this dgecon rcond estimate.
RCOND_MIN = 1e-14
# Minimum eigenvalue threshold for A_i > 0.
POSDEF_EIG_MIN = 1e-10
# Relative asymmetry above which symmetrization of A/D emits a warning.
ASYM_WARN = 1e-8


# The types of a real number; bool is an int, so each check refuses it by name.
_REAL_TYPES = (int, float, np.integer, np.floating)
# The entry types _as_array reads: those and None, read as NaN, which its
# callers refuse as non-finite.
_ENTRY_TYPES = (*_REAL_TYPES, type(None))


def _as_array(value, name):
    """``value`` as a float array; DimensionMismatch names ``name`` when it is no
    array of numbers: a JSON object, a string, a boolean, a ragged list, or an
    ndarray whose dtype kind is not integer or float."""
    try:
        if isinstance(value, np.ndarray):
            numbers = value.dtype.kind in "iuf"
        else:
            # numpy would read "1" and [true, 0] as numbers: each entry's type decides.
            value = np.asarray(value, dtype=object)
            numbers = all(issubclass(t, _ENTRY_TYPES) and t is not bool
                          for t in set(map(type, value.flat)))
        if numbers:
            return np.asarray(value, dtype=float)
    except (ValueError, OverflowError):  # a ragged list; an int beyond float's range
        pass
    raise DimensionMismatch(f"{name} must be an array of numbers")


def _is_count(value):
    """True for a count: an int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value):
    """True for a real number: one of _REAL_TYPES but a bool, which float()
    converts without overflow (an int beyond float's range overflows)."""
    if not isinstance(value, _REAL_TYPES) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _player_index(i):
    """``i`` once it is the player index 1 or 2, a count as _is_count holds."""
    if _is_count(i) and i in (1, 2):
        return i
    raise DimensionMismatch(f"player index must be 1 or 2, got {i!r}")


def _as_shaped(value, shape, name):
    """``value`` as a finite float array of ``shape``, a matrix's (rows, cols) or
    a vector's (n,); DimensionMismatch names ``name`` otherwise."""
    m = _as_array(value, name)
    if m.shape != shape:
        want = f"shape {shape}" if len(shape) == 2 else f"length {shape[0]}"
        raise DimensionMismatch(f"{name} must have {want}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return m


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


class _Dims(NamedTuple):
    d1: int
    d2: int


class Dims(_Dims):
    """Action-space dimensions of the two players."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs __new__ too

    def __new__(cls, d1, d2):
        if not (_is_count(d1) and _is_count(d2)):
            raise DimensionMismatch(f"dimensions must be integers, got {d1!r}, {d2!r}")
        if d1 < 1 or d2 < 1:
            raise DimensionMismatch("dimensions must be >= 1")
        # A numpy integer is stored as an int, which the game JSON can write.
        return super().__new__(cls, int(d1), int(d2))

    @property
    def d(self):
        return self.d1 + self.d2


class PlayerCost(NamedTuple):
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
        A = _symmetrize(_as_shaped(A, (d_own, d_own), f"A{player}"), f"A{player}")
        B = _as_shaped(B, (d_opp, d_own), f"B{player}")
        D = _symmetrize(_as_shaped(D, (d_opp, d_opp), f"D{player}"), f"D{player}")
        a = _as_shaped(a, (d_own,), f"a{player}")
        b = _as_shaped(b, (d_opp,), f"b{player}")
        return cls(A=A, B=B, D=D, a=a, b=b)


class QuadraticGame(NamedTuple):
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
        return self.p1 if _player_index(i) == 1 else self.p2


class CompositeBlocks(NamedTuple):
    """M1, M2 and their cross product boldM1 = M2^{-T} M1.

    boldM1 partitions as [[bA1, bB1], [bC1, bD1]] with bA1 of shape d1 x d1.
    Player 2's partner M1^{-T} M2 is boldM1^{-1}, since both M_i are symmetric.
    """

    dims: Dims
    M1: np.ndarray
    M2: np.ndarray
    boldM1: np.ndarray

    def bold_blocks(self):
        """(bA1, bB1, bC1, bD1): the four blocks of boldM1, as views."""
        d1, m = self.dims.d1, self.boldM1
        return m[:d1, :d1], m[:d1, d1:], m[d1:, :d1], m[d1:, d1:]


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


def _lu_checked(a, error, *args, rcond_min=RCOND_MIN):
    """(lu, piv): dgetrf of square ``a``, the guard rule of every checked LU: raises
    ``error(*args)`` when dgecon's 1-norm rcond estimate is below rcond_min or NaN."""
    lu, piv, rcond = _lu_rcond(a)
    if not rcond >= rcond_min:
        raise error(*args)
    return lu, piv


def _solve_checked(a, b, error, *args, rcond_min=RCOND_MIN, trans=0):
    """Solve ``a x = b`` (``a^T x = b`` if ``trans=1``) with one _lu_checked LU."""
    lu, piv = _lu_checked(a, error, *args, rcond_min=rcond_min)
    return lapack.dgetrs(lu, piv, b, trans=trans)[0]


def _solve_sym_checked(a, b, error, *args):
    """Solve the symmetric system ``a x = b`` with one factorization: (x, posdef).

    Tries a Cholesky solve (dposv) first. When it factors ``a``, ``a`` is
    positive definite (posdef True) and dpocon's 1-norm rcond estimate of the
    factor is held to RCOND_MIN. Otherwise posdef is False and the solve is
    _solve_checked's LU. Either way raises ``error(*args)`` below RCOND_MIN
    or at a NaN estimate.
    """
    c, x, info = lapack.dposv(a, b)
    if info != 0:
        return _solve_checked(a, b, error, *args), False
    if not lapack.dpocon(c, lapack.dlange("1", a))[0] >= RCOND_MIN:
        raise error(*args)
    return x, True


def _posdef(m):
    """True when LAPACK dpotrf factors the symmetric matrix ``m`` (Cholesky)."""
    return bool(lapack.dpotrf(m)[1] == 0)


def _min_eig(S):
    """Smallest eigenvalue of symmetric ``S``, the only one LAPACK dsyevr computes."""
    w, _, _, _, info = lapack.dsyevr(S, compute_v=0, range="I", il=1, iu=1, lower=1)
    if info != 0:
        raise EigFailure(f"dsyevr failed with info={info}")
    return float(w[0])


def _factor_m(game: QuadraticGame):
    """Check A_i > 0, then factor M1 and M2: (M, lu, piv) for each.

    A_i passes when A_i - POSDEF_EIG_MIN I has a Cholesky factor; only when it
    has none does _min_eig decide (min eigenvalue <= POSDEF_EIG_MIN fails) and
    give the value ANotPositiveDefinite reports. Then raises MSingular below
    RCOND_SINGULAR or at a NaN estimate.
    """
    for i in (1, 2):
        A = game.player(i).A
        shifted = A.copy()
        shifted.flat[::A.shape[0] + 1] -= POSDEF_EIG_MIN
        if not _posdef(shifted) and (min_eig := _min_eig(A)) <= POSDEF_EIG_MIN:
            raise ANotPositiveDefinite(i, min_eig)
    factors = []
    for i, m in ((1, stacked_m1(game)), (2, stacked_m2(game))):
        lu, piv, rc = _lu_rcond(m)
        if not rc >= RCOND_SINGULAR:
            raise MSingular(i, rc)
        factors.append((m, lu, piv))
    return factors


def validate_game(game: QuadraticGame) -> QuadraticGame:
    """Check A_i > 0 and invertibility of M1, M2; return the game unchanged."""
    _factor_m(game)
    return game


def eval_cost(game: QuadraticGame, i: int, x1, x2) -> float:
    """Player i's quadratic cost at the joint action (x1, x2)."""
    x1 = _as_shaped(x1, (game.dims.d1,), "x1")
    x2 = _as_shaped(x2, (game.dims.d2,), "x2")
    i = _player_index(i)
    operands = _cost_operands(game, stacked_m1(game), stacked_m2(game))
    with np.errstate(invalid="ignore", over="ignore"):
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
    infinite cost. Callers silence the floating-point warnings these raise
    with np.errstate(invalid="ignore", over="ignore"): iterate once a run.
    """
    MM, G = operands
    z = np.concatenate((x1, x2))
    f1, f2 = (0.5 * MM.dot(z).reshape(2, -1) + G).dot(z).tolist()
    return f1, f2


def assemble_blocks(game: QuadraticGame) -> CompositeBlocks:
    """Form M1, M2 and boldM1 = M2^{-T} M1.

    Validates the game as validate_game does, in the same pass.
    """
    (m1, _, _), (m2, lu2, piv2) = _factor_m(game)
    bold1 = lapack.dgetrs(lu2, piv2, m1, trans=1)[0]
    return CompositeBlocks(dims=game.dims, M1=m1, M2=m2, boldM1=bold1)


def _cost_rows(p: PlayerCost):
    """Player p's own-first cost matrix with its linear row appended,
    [[A, B^T], [B, D], [a^T, b^T]], as its two column blocks (own, opp): the
    operand of _slope_terms. Built once an operation (a run, a solve or a
    public call), never kept on the game."""
    return (np.concatenate((p.A, p.B, p.a[None])),
            np.concatenate((p.B.T, p.D, p.b[None])))


class _Slope(NamedTuple):
    """A player's conjecture slope L with the three products every per-slope
    quantity reads: P = A + B^T L, Q = B + D L and c = a + L^T b.

    The cross map is -P^{-T} Q^T and the opponent offset -P^{-T} c, the
    effective Hessian sym(P + L^T Q), the best-response right-hand side
    c + Q^T ell and the coupled residual L_opp^T P + Q. ``Qc`` is the rows
    [Q; c^T], of which Q and c are views.
    """

    L: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    Qc: np.ndarray


def _slope_terms(rows, L) -> _Slope:
    """The _Slope at slope L of the player whose _cost_rows are ``rows``: the
    one place its products are formed, as the rows of [P; Q; c^T] = own + opp L."""
    own, opp = rows
    # In place: own + opp @ L allocates a second (d + 1) x n array per
    # slope, which raised a 100x120 cross run's peak RSS by about 2 MB.
    terms = opp @ L
    terms += own
    n = L.shape[1]
    Qc = terms[n:]
    # tuple.__new__ skips the NamedTuple's Python-level __new__, which made
    # a small game's iteration about 3% slower.
    return tuple.__new__(_Slope, (L, terms[:n], Qc[:-1], Qc[-1], Qc))


def _offset(i, s):
    """-P^{-T} c: the opponent offset at player i's slope s."""
    return -_solve_checked(s.P.T, s.c, SingularBestResponse, i)


def _cross_offset(i, s):
    """(-P^{-T} Q^T, -P^{-T} c): the opponent slope and offset at player i's
    slope s, from one LU of P^T and one dgetrs of the F-contiguous [Q^T | c]."""
    X = _solve_checked(s.P.T, s.Qc.T, SingularBestResponse, i)
    np.negative(X, out=X)
    return X[:, :-1], X[:, -1]


def _checked_L(dims: Dims, i, L):
    """Player i's slope L, once _player_index has checked i and _as_shaped that
    L is finite and d_{-i} x d_i."""
    shape = (dims.d2, dims.d1) if _player_index(i) == 1 else (dims.d1, dims.d2)
    return _as_shaped(L, shape, f"L{i}")


def _checked_slope(game: QuadraticGame, i, L) -> _Slope:
    """_slope_terms of player i's slope L, checked by _checked_L."""
    return _slope_terms(_cost_rows(game.player(i)), _checked_L(game.dims, i, L))


def _residuals(s1: _Slope, s2: _Slope):
    """(R1, R2) = (L2^T P1 + Q1, L1^T P2 + Q2) from the two players' slopes."""
    r1 = s2.L.T @ s1.P
    r1 += s1.Q
    r2 = s1.L.T @ s2.P
    r2 += s2.Q
    return r1, r2


def _sq_norm(m):
    """The sum of squares of the entries of ``m``, formed as np.linalg.norm(m)
    forms it before its sqrt: the dot product of the ravel-order entries."""
    v = m.ravel(order="K")
    return v.dot(v)


def _a_norms(game: QuadraticGame):
    """(||A_1||_F, ||A_2||_F): the scales of the residual norms."""
    return math.sqrt(_sq_norm(game.p1.A)), math.sqrt(_sq_norm(game.p2.A))


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
    return _residuals(_checked_slope(game, 1, L1), _checked_slope(game, 2, L2))


def riccati_residual_norms(game: QuadraticGame, L1, L2):
    """Frobenius norms of the coupled residuals, relative to ||A_i||_F."""
    return _residual_norms(*riccati_residual(game, L1, L2), _a_norms(game))


# --- Game JSON format -------------------------------------------------------

_GAME_KEYS = {"d1", "d2", "player1", "player2"}
# A player's keys, in the order of PlayerCost's fields and of its create arguments.
_PLAYER_KEYS = PlayerCost._fields


def game_to_dict(game: QuadraticGame) -> dict:
    data = {"d1": game.dims.d1, "d2": game.dims.d2}
    for i in (1, 2):
        p = game.player(i)
        data[f"player{i}"] = {key: getattr(p, key).tolist() for key in _PLAYER_KEYS}
    return data


def _checked_keys(data, keys, name, what):
    """``data`` once it is an object with exactly ``keys``; otherwise raises
    DimensionMismatch naming the object ``name`` or its ``what`` keys."""
    if not isinstance(data, dict):
        raise DimensionMismatch(f"{name} must be an object")
    unknown = set(data).difference(keys)
    if unknown:
        raise DimensionMismatch(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(keys).difference(data)
    if missing:
        raise DimensionMismatch(f"missing {what} keys: {sorted(missing)}")
    return data


def _checked_dim(value, name):
    """``value`` as an int once _is_count holds for it, as a JSON integer's
    does; otherwise raises DimensionMismatch naming ``name``."""
    if not _is_count(value):
        raise DimensionMismatch(f"{name} must be a JSON integer, got {value!r}")
    return int(value)


def game_from_dict(data: dict) -> QuadraticGame:
    _checked_keys(data, _GAME_KEYS, "game JSON", "game")
    players = [_checked_keys(data[key], _PLAYER_KEYS, key, key)
               for key in ("player1", "player2")]
    return QuadraticGame.create(
        _checked_dim(data["d1"], "d1"),
        _checked_dim(data["d2"], "d2"),
        *([p[key] for key in _PLAYER_KEYS] for p in players),
    )


def _read_json(path, keys=()):
    """The JSON object the file at ``path`` holds, once it has each of ``keys``: a
    parse's ValueError (bad JSON or UTF-8) is raised again with the path in front,
    and DimensionMismatch names the path for any other value or missing keys."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DimensionMismatch(f"{path} must hold a JSON object")
    missing = set(keys) - set(data)
    if missing:
        raise DimensionMismatch(f"{path} is missing keys {sorted(missing)}")
    return data


def _write_json(path, data) -> None:
    """Write ``data`` to ``path`` as JSON indented by 2, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def save_game(game: QuadraticGame, path) -> None:
    _write_json(path, game_to_dict(game))


def load_game(path) -> QuadraticGame:
    return game_from_dict(_read_json(path))
