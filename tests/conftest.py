"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
import scipy.linalg as sla

from ccve import builders
from ccve.core import QuadraticGame


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


def perturbation_operator(blocks, i, L_i):
    """Dense matrix of dL -> (bD_i - L_i bB_i) dL (bA_i + bB_i L_i)^{-1}.

    The operator acts on vec(dL) with column-major stacking; its eigenvalues
    must match stability.perturbation_spectrum as a multiset.
    """
    bA, bB, _, bD = blocks.bold_blocks(i)
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
