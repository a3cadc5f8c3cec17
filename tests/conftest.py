"""Shared fixtures and helpers for the test suite."""

import os
from collections import Counter

# One BLAS thread unless the caller chose otherwise. Set before the first
# numpy import, which reads it: threads that wait on a busy core can make
# the suite many times slower.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.linalg as sla

from ccve import analysis, builders, cli, core, equilibrium, lft, spectral, stability
from ccve.core import QuadraticGame

CCVE_MODULES = (analysis, builders, cli, core, equilibrium, lft, spectral, stability)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*helpers): a Counter of the calls made from then on.

    Counts every public callable of core.lapack (the loaded
    scipy.linalg._flapack; spectral.lapack is the same module), found by
    walking its attributes and keyed by LAPACK name, and np.linalg.eigvals as
    "eigvals". Each helper is a private name of ccve.core, patched in every
    ccve module that binds it, or "np.<name>" for a numpy function; it is
    keyed as given.
    """
    def install(*helpers):
        calls = Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        targets = [(core.lapack, name, name) for name in dir(core.lapack)
                   if not name.startswith("_") and callable(getattr(core.lapack, name))]
        targets.append((np.linalg, "eigvals", "eigvals"))
        for helper in helpers:
            if helper.startswith("np."):
                targets.append((np, helper[3:], helper))
            else:
                fn = getattr(core, helper)
                targets += [(m, helper, helper) for m in CCVE_MODULES
                            if getattr(m, helper, None) is fn]
        for module, name, key in targets:
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))
        return calls
    return install


@pytest.fixture
def warmup_game():
    """Symmetric scalar game with a closed-form equilibrium.

    q = 1, r = 0.25, s = 0 for both players; the stable slope is
    -2 + sqrt(3) and the contraction factor is 97 - 56 sqrt(3).
    """
    return builders.build_scalar_game(builders.ScalarSpec(q1=1.0, r1=0.25, s1=0.0))


@pytest.fixture
def bench_game():
    """The fixed 2x3 benchmark game."""
    return builders.example1_game()


def uniform_pool(count, seed0=0, dmax=6, lo=-1.0, hi=1.0):
    """Deterministic pool of validated random games with clean spectral gaps."""
    games = []
    rng = np.random.default_rng(12345)
    for j in range(count):
        d1 = int(rng.integers(1, dmax + 1))
        d2 = int(rng.integers(1, dmax + 1))
        games.append(
            builders.random_game(d1, d2, recipe="uniform", seed=seed0 + j,
                                 lo=lo, hi=hi)
        )
    return games


def random_dense_game(rng, d1, d2, coupling=0.5):
    """Fully dense validated game: SPD A blocks, symmetric D, arbitrary B."""
    def spd(n):
        m = rng.standard_normal((n, n))
        return m @ m.T + n * np.eye(n)

    def sym(n, scale):
        m = rng.standard_normal((n, n)) * scale
        return 0.5 * (m + m.T)

    p1 = (spd(d1), coupling * rng.standard_normal((d2, d1)), sym(d2, 0.3),
          rng.standard_normal(d1), rng.standard_normal(d2))
    p2 = (spd(d2), coupling * rng.standard_normal((d1, d2)), sym(d1, 0.3),
          rng.standard_normal(d2), rng.standard_normal(d1))
    return QuadraticGame.create(d1, d2, p1, p2)


def random_lq_spec(rng, n_max=3, t_max=4):
    """Random well-posed LQ dynamic game description."""
    n = int(rng.integers(1, n_max + 1))
    m1 = int(rng.integers(1, 3))
    m2 = int(rng.integers(1, 3))
    T = int(rng.integers(1, t_max + 1))

    def psd(k):
        m = rng.standard_normal((k, k))
        return m @ m.T

    def pd(k):
        return psd(k) + 0.5 * np.eye(k)

    return builders.LqSpec.create(
        F=0.5 * rng.standard_normal((n, n)),
        G1=rng.standard_normal((n, m1)),
        G2=rng.standard_normal((n, m2)),
        Q1=psd(n), Q2=psd(n), Q1f=psd(n), Q2f=psd(n),
        R1=pd(m1), R2=pd(m2),
        R12=0.3 * rng.standard_normal((m1, m2)),
        R21=0.3 * rng.standard_normal((m2, m1)),
        z0=rng.standard_normal(n),
        T=T,
    )


def rollout_cost(spec, i, u1, u2):
    """Trajectory cost by explicit forward simulation (oracle for the unroll).

    Measured relative to the uncontrolled trajectory from z0: the static
    quadratic form carries no constant term, so the control-independent state
    cost 1/2 sum_t (F^t z0)^T Q (F^t z0) is subtracted."""
    T = spec.T
    u1 = np.asarray(u1, float).reshape(T, spec.m1)
    u2 = np.asarray(u2, float).reshape(T, spec.m2)
    Q = spec.Q1 if i == 1 else spec.Q2
    Qf = spec.Q1f if i == 1 else spec.Q2f
    R = spec.R1 if i == 1 else spec.R2
    Rc = spec.R12 if i == 1 else spec.R21
    u_own, u_opp = (u1, u2) if i == 1 else (u2, u1)
    z = spec.z0.copy()
    z_free = spec.z0.copy()
    total = 0.0
    for t in range(T):
        total += 0.5 * (z @ Q @ z - z_free @ Q @ z_free)
        total += 0.5 * u_own[t] @ R @ u_own[t] + u_own[t] @ Rc @ u_opp[t]
        z = spec.F @ z + spec.G1 @ u1[t] + spec.G2 @ u2[t]
        z_free = spec.F @ z_free
    total += 0.5 * (z @ Qf @ z - z_free @ Qf @ z_free)
    return float(total)


def partner_composite(blocks):
    """Player 2's composite M1^{-T} M2, formed from M1 and M2 with numpy."""
    return np.linalg.solve(blocks.M1.T, blocks.M2)


# A scalar game whose boldM1 = [[1, 0.5], [0.5, -1]] has the eigenvalues
# +/- sqrt(1.25), of equal magnitude: its fixed points are marginal, and the
# largest selection solves but its certificate reads xi_max = 1.
MARGINAL = builders.ScalarSpec(q1=1.0, r1=0.5, s1=-1.0, q2=1.0, r2=0.0, s2=1.0)


# The games the player-2 forms are compared on: the acceptance pool and
# paper7ex2 at 50x60 s0 and 200x240 s1, built when a test asks for them.
PARTNER_GAMES = [
    pytest.param(lambda: uniform_pool(100, seed0=1000, dmax=6), id="pool"),
    pytest.param(lambda: [builders.random_game(50, 60, recipe="paper7ex2", seed=0)],
                 id="paper7ex2-50x60-s0"),
    pytest.param(lambda: [builders.random_game(200, 240, recipe="paper7ex2", seed=1)],
                 id="paper7ex2-200x240-s1"),
]


def composite_blocks(blocks, i):
    """(bA_i, bB_i, bC_i, bD_i): the blocks of player i's composite matrix.

    Player 1's is boldM1 = M2^{-T} M1, partitioned [[bA1, bB1], [bC1, bD1]].
    Player 2's partner composite M1^{-T} M2 is formed here from M1 and M2,
    not read from the package, and partitions as [[bD2, bC2], [bB2, bA2]]
    with bD2 of shape d1 x d1.
    """
    d1 = blocks.dims.d1
    if i == 1:
        m = blocks.boldM1
        return m[:d1, :d1], m[:d1, d1:], m[d1:, :d1], m[d1:, d1:]
    m = partner_composite(blocks)
    return m[d1:, d1:], m[d1:, :d1], m[:d1, d1:], m[:d1, :d1]


def h_matrices(blocks, L1, L2):
    """(H1, H1', H2, H2'): the similarity-transform diagonal blocks at a fixed
    pair (L1, L2), formed here with numpy.

    H1 = bA1 + bB1 L1 and H1' = bD1 - L1 bB1; player 2's composite is
    boldM1^{-1}, so H2 = (bC1 L2 + bD1)^{-1} and H2' = (bA1 - L2 bC1)^{-1}.
    """
    bA1, bB1, bC1, bD1 = composite_blocks(blocks, 1)
    L1, L2 = np.asarray(L1, dtype=float), np.asarray(L2, dtype=float)
    return (bA1 + bB1 @ L1, bD1 - L1 @ bB1,
            np.linalg.inv(bC1 @ L2 + bD1), np.linalg.inv(bA1 - L2 @ bC1))


def perturbation_operator(blocks, i, L_i):
    """Dense matrix of dL -> (bD_i - L_i bB_i) dL (bA_i + bB_i L_i)^{-1}.

    The operator acts on vec(dL) with column-major stacking; its eigenvalues
    must match stability.perturbation_spectrum as a multiset.
    """
    bA, bB, _, bD = composite_blocks(blocks, i)
    L_i = np.asarray(L_i, dtype=float)
    left = bD - L_i @ bB
    right_inv = np.linalg.inv(bA + bB @ L_i)
    return np.kron(right_inv.T, left)


def principal_angles(U, V):
    """Principal angles between the column spans of U and V."""
    return sla.subspace_angles(np.asarray(U, float), np.asarray(V, float))


def match_multisets(a, b, tol):
    """True when two complex arrays agree as multisets within tol."""
    a = sorted(np.asarray(a, complex).reshape(-1), key=lambda z: (z.real, z.imag))
    b = sorted(np.asarray(b, complex).reshape(-1), key=lambda z: (z.real, z.imag))
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for x in a:
        best, best_d = -1, np.inf
        for j, y in enumerate(b):
            if used[j]:
                continue
            d = abs(x - y)
            if d < best_d:
                best, best_d = j, d
        if best_d > tol:
            return False
        used[best] = True
    return True
