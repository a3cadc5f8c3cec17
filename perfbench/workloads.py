"""Seeded inputs and operations for the four benchmark workloads.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  A workload is a fixed *cycle* of
operations built from the run seed; the timed loop repeats whole cycles, so
the mix of game sizes, and therefore every reported percentile and the
failure ratio, is the same in every run.  Where a cycle is built from a fixed
set of games (dense-solve, iterate-converge), the seed only shuffles their
order.

A percentile is taken over the cycle's G operations, each represented by
the median of its repeats in the run.  With G odd the p50 is one
operation's median; the p90 interpolates between two neighbouring
operations.  The cycles are built so that neither falls between two games
whose order changes from run to run.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from ccve import builders
from ccve.core import save_game
from ccve.errors import DegenerateScalar

ITER_TOL = 1e-10
# Largest certificate xi_max accepted for a randomly drawn small game, and
# for an LQ unroll.  Iteration steps grow steeply as xi_max nears 1, so the
# caps keep each cycle's total steps, and its cost, nearly the same from seed
# to seed.
XI_MAX_DRAWN = 0.4
XI_MAX_LQ = 0.1


@dataclass
class Game:
    """One benchmark input: a game and what the correctness gate knows of it."""

    key: str
    game: object
    scalar: bool = False
    pinned_L1: float | None = None  # closed-form stable slope, if pinned
    path: str | None = None  # game JSON file, for the cli workload


@dataclass
class Op:
    """One closed-loop operation.

    ``kind`` names what the operation calls: "solve+iterate" (small-games),
    "solve" / "qz" (dense-solve), "iterate" (iterate-converge), or a ccve
    subcommand (cli).
    """

    kind: str
    game: Game
    mode: str = "cross"
    argv: tuple = ()
    expect_exit: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    cycle: list
    warmup: Op


# --- scalar games -----------------------------------------------------------

def scalar_spec_box(rng):
    """Draw ScalarSpec parameters from the benchmark's parameter box."""
    q1, q2 = rng.uniform(0.5, 2.0, size=2)
    r1, r2, s1, s2 = rng.uniform(-1.0, 1.0, size=4)
    w1, v1, w2, v2 = rng.uniform(-1.0, 1.0, size=4)
    return builders.ScalarSpec(q1=q1, r1=r1, s1=s1, w1=w1, v1=v1,
                               q2=q2, r2=r2, s2=s2, w2=w2, v2=v2)


def boundary_spectrum(game):
    """The two eigenvalues of boldM1 = M2^{-T} M1 at the d1 selection boundary.

    Computed here from the game's blocks, independently of the package, so
    that a stream's mix of well-posed and ill-posed games is fixed by
    construction.  Returns (lambda_d1, lambda_d1+1) in descending magnitude.
    """
    p1, p2 = game.p1, game.p2
    m1 = np.block([[p1.A, p1.B.T], [p1.B, p1.D]])
    m2 = np.block([[p2.D, p2.B], [p2.B.T, p2.A]])
    lam = np.linalg.eigvals(np.linalg.solve(m2.T, m1))
    lam = lam[np.argsort(-np.abs(lam))]
    d1 = game.dims.d1
    return lam[d1 - 1], lam[d1]


def contracts(game, xi_max=XI_MAX_DRAWN):
    """True when the largest-magnitude selection certifies with margin.

    Its certificate xi_max = |lambda_d1+1| / |lambda_d1| is then at most
    ``xi_max``, and the cross iteration (rate sqrt(xi_max) a step) reaches
    1e-10 well inside max_iters = 100.
    """
    inner, outer = boundary_spectrum(game)
    return abs(outer) <= xi_max * abs(inner)


def strictly_convex(game):
    """True when both players' conjectured problems are strictly convex.

    For a scalar game, the stable slope L1 = x / y comes from the eigenvector
    (y, x) of the largest-magnitude eigenvalue of boldM1, and L2 from player
    1's cross map; each effective Hessian q + 2 r L + s L^2 must be positive
    (the second-order condition `ccve check` certifies).
    """
    p1, p2 = game.p1, game.p2
    m1 = np.block([[p1.A, p1.B.T], [p1.B, p1.D]])
    m2 = np.block([[p2.D, p2.B], [p2.B.T, p2.A]])
    lam, vec = np.linalg.eig(np.linalg.solve(m2.T, m1))
    y, x = vec[:, np.argmax(np.abs(lam))].real
    q1, r1, s1 = p1.A[0, 0], p1.B[0, 0], p1.D[0, 0]
    q2, r2, s2 = p2.A[0, 0], p2.B[0, 0], p2.D[0, 0]
    L1 = x / y
    L2 = -(r1 + L1 * s1) / (q1 + L1 * r1)
    return min(q1 + 2 * r1 * L1 + s1 * L1 ** 2, q2 + 2 * r2 * L2 + s2 * L2 ** 2) > 1e-3


def draw_scalar(rng, elliptic=False):
    """A scalar game from the box: well-posed and contracting, or elliptic."""
    while True:
        try:
            game = builders.build_scalar_game(scalar_spec_box(rng))
        except DegenerateScalar:
            continue
        inner, _ = boundary_spectrum(game)
        if elliptic and abs(inner.imag) > 1e-3 * abs(inner):
            return game
        if not elliptic and inner.imag == 0.0 and contracts(game) \
                and strictly_convex(game):
            return game


def draw_scalars(rng, count, pool=8):
    """``count`` contracting scalar games spread evenly over their xi_max.

    Draws pool * count games and keeps those at evenly spaced quantiles of
    xi_max, so that the cycle's total iteration steps (which grow with
    xi_max) vary little from seed to seed.
    """
    games = [draw_scalar(rng) for _ in range(pool * count)]
    xi = [abs(outer / inner) for inner, outer in map(boundary_spectrum, games)]
    order = np.argsort(xi)
    return [games[order[pool * j + pool // 2]] for j in range(count)]


WARMUP_SPEC = builders.ScalarSpec(q1=1.0, r1=0.25, s1=0.0)
WARMUP_L1 = -2.0 + math.sqrt(3.0)


def warmup_game():
    """The symmetric scalar game whose stable slope is -2 + sqrt(3)."""
    return Game("scalar-warmup", builders.build_scalar_game(WARMUP_SPEC),
                scalar=True, pinned_L1=WARMUP_L1)


def example_game():
    return Game("2x3", builders.example1_game())


# --- LQ games ---------------------------------------------------------------

def draw_lq(rng, n, m1, m2, T):
    """An unrolled LQ game with n states and T stages that contracts."""
    while True:
        game = builders.build_lq_game(lq_spec(rng, n, m1, m2, T))
        if contracts(game, XI_MAX_LQ):
            return game


def lq_spec(rng, n, m1, m2, T):
    """A finite-horizon LQ game description with weak state costs."""
    def psd(k, scale=1.0):
        m = rng.standard_normal((k, k))
        return scale * m @ m.T / k

    return builders.LqSpec.create(
        F=0.5 * rng.standard_normal((n, n)) / math.sqrt(n),
        G1=rng.standard_normal((n, m1)), G2=rng.standard_normal((n, m2)),
        Q1=psd(n, 0.3), Q2=psd(n, 0.3), Q1f=psd(n, 0.3), Q2f=psd(n, 0.3),
        R1=psd(m1) + np.eye(m1), R2=psd(m2) + np.eye(m2),
        R12=0.2 * rng.standard_normal((m1, m2)),
        R21=0.2 * rng.standard_normal((m2, m1)),
        z0=rng.standard_normal(n), T=T,
    )


# --- workload builders --------------------------------------------------------

def paper_d2(d1):
    """The paper7ex2 shape: d2 = 1.2 d1 (50x60, 100x120, ...)."""
    return int(math.ceil(1.2 * d1))


def small_games(seed):
    """95 tiny games a cycle: Python overhead, not LAPACK, dominates.

    34 contracting scalar games from a parameter box and 1 elliptic scalar game (no real equilibrium:
    its solve raises NoStableSelection and its iteration cannot converge, a
    known failure kept in the load), 4 copies of the fixed 2x3 game, all 28
    uniform-recipe shapes with d1 + d2 <= 8, paper7ex2 with d1 = 2..12 at two
    seeds each, and 6 LQ unrolls.
    """
    rng = np.random.default_rng([seed, 1])
    games = [warmup_game()]
    games += [Game(f"scalar-{j}", g, scalar=True)
              for j, g in enumerate(draw_scalars(rng, 33))]
    games.append(Game("scalar-elliptic", draw_scalar(rng, elliptic=True), scalar=True))
    games += [example_game()] * 4
    for d1 in range(1, 8):
        for d2 in range(1, 9 - d1):
            s = int(rng.integers(1 << 30))
            games.append(Game(f"uniform-{d1}x{d2}-s{s}",
                              builders.random_game(d1, d2, recipe="uniform", seed=s)))
    for d1 in range(2, 13):
        for _ in range(2):
            s = int(rng.integers(1 << 30))
            games.append(Game(f"paper7ex2-{d1}x{paper_d2(d1)}-s{s}",
                              builders.random_game(d1, paper_d2(d1), seed=s)))
    for j, shape in enumerate([(1, 1, 1, 2), (1, 1, 1, 3), (2, 1, 1, 2),
                               (2, 1, 2, 2), (2, 2, 1, 3), (2, 2, 2, 2)]):
        games.append(Game(f"lq-{j}", draw_lq(rng, *shape)))
    assert len(games) == 95
    cycle = [Op("solve+iterate", g) for g in games]
    order = rng.permutation(len(cycle))
    return Workload("small-games", [cycle[i] for i in order],
                    Op("solve+iterate", example_game()))


# Fixed game set: the run seed only shuffles the order, so the failure ratio
# and the percentiles do not depend on which seeds were drawn.  The seed
# ranges include the known NoStableSelection cases (100x120 seeds 5 and 6,
# 150x180 seed 1, 200x240 seed 0).
DENSE_AUTO = [(50, 60, range(10)), (100, 120, range(8)),
              (150, 180, range(4)), (200, 240, range(3))]
DENSE_QZ = [(50, 60, range(4)), (100, 120, range(1))]


def dense_solve(seed):
    """25 auto solves and 5 QZ solves a cycle: LAPACK dominates."""
    rng = np.random.default_rng([seed, 2])
    games = {}

    def game(d1, d2, s):
        key = f"paper7ex2-{d1}x{d2}-s{s}"
        if key not in games:
            games[key] = Game(key, builders.random_game(d1, d2, seed=s))
        return games[key]

    cycle = [Op("solve", game(d1, d2, s)) for d1, d2, seeds in DENSE_AUTO for s in seeds]
    cycle += [Op("qz", game(d1, d2, s)) for d1, d2, seeds in DENSE_QZ for s in seeds]
    order = rng.permutation(len(cycle))
    return Workload("dense-solve", [cycle[i] for i in order], Op("solve", game(50, 60, 0)))


# At 50x60, cross runs take 23-41 steps (about 3.5 ms a step) and composite
# runs 12-20 (about 4 ms a step).  The seeds are chosen so that the six
# composite runs (12-17 steps) are all shorter than the shortest cross run,
# the p50 (the 13th of 25 runs) falls among the cross runs of 28-31 steps,
# and the p90 (between the 22nd and the 23rd) between a run of 35 steps and
# one of 41.
ITER_CROSS_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19)
ITER_COMPOSITE_SEEDS = (4, 5, 6, 7, 8, 9)


def iterate_converge(seed):
    """25 iterations a cycle from the Nash initialization.

    18 cross and 6 composite runs on 50x60 games, and one 100x120 run that
    reaches max_iters (xi_max near 1): a known failure kept in the load.
    """
    rng = np.random.default_rng([seed, 3])
    games = {s: Game(f"paper7ex2-50x60-s{s}", builders.random_game(50, 60, seed=s))
             for s in sorted(set(ITER_CROSS_SEEDS) | set(ITER_COMPOSITE_SEEDS))}
    big_seed = seed % 4
    big = Game(f"paper7ex2-100x120-s{big_seed}",
               builders.random_game(100, 120, seed=big_seed))
    cycle = [Op("iterate", games[s], mode="cross") for s in ITER_CROSS_SEEDS]
    cycle += [Op("iterate", games[s], mode="composite") for s in ITER_COMPOSITE_SEEDS]
    cycle.append(Op("iterate", big, mode="cross"))
    order = rng.permutation(len(cycle))
    return Workload("iterate-converge", [cycle[i] for i in order],
                    Op("iterate", games[8], mode="composite"))


def cli_ops(prefix, game, full=True, compare=True):
    """The ccve subcommands the cli workload runs on one game file."""
    sol = f"{prefix}.solution.json"
    trace = f"{prefix}.trace.csv"
    ops = [Op("solve", game, argv=("solve", "--game", game.path, "--out", sol),
              expect={"solution": sol})]
    it = ["iterate", "--game", game.path, "--trace", trace]
    if compare:
        it += ["--compare", sol]
    ops.append(Op("iterate", game, argv=tuple(it),
                  expect={"trace": trace, "compare": compare}))
    if full:
        ops.append(Op("check", game,
                      argv=("check", "--game", game.path, "--solution", sol)))
        out = f"{prefix}.candidates.json"
        ops.append(Op("enumerate", game,
                      argv=("enumerate", "--game", game.path, "--out", out),
                      expect={"candidates": out}))
    return ops


def cli(seed, workdir):
    """11 ccve subprocesses a cycle, one at a time.

    solve, iterate --trace --compare, check and enumerate on a scalar game
    file and on the 2x3 game file; solve and iterate --trace on a 50x60 game
    file (345 KB game JSON, 3 MB trace CSV); and solve on an elliptic scalar
    game, which must exit 2 (no stable selection), a known failure.
    """
    rng = np.random.default_rng([seed, 4])
    scalar = Game("scalar", draw_scalar(rng), scalar=True)
    elliptic = Game("scalar-elliptic", draw_scalar(rng, elliptic=True), scalar=True)
    small = example_game()
    big = Game(f"paper7ex2-50x60-s{seed % 5}", builders.random_game(50, 60, seed=seed % 5))
    games = [scalar, small, big, elliptic]
    for g in games:
        g.path = os.path.join(workdir, f"{g.key}.game.json")
        save_game(g.game, g.path)
    groups = [cli_ops(os.path.join(workdir, "scalar"), scalar),
              cli_ops(os.path.join(workdir, "2x3"), small),
              cli_ops(os.path.join(workdir, "50x60"), big, full=False, compare=False),
              [Op("solve", elliptic, expect_exit=2,
                  argv=("solve", "--game", elliptic.path,
                        "--out", os.path.join(workdir, "elliptic.solution.json")))]]
    # Each group keeps its order (iterate --compare and check read the
    # solution that solve wrote); the seed shuffles the groups.
    cycle = [op for i in rng.permutation(len(groups)) for op in groups[i]]
    warm = Op("solve", small, argv=("solve", "--game", small.path,
                                    "--out", os.path.join(workdir, "warmup.solution.json")),
              expect={"solution": os.path.join(workdir, "warmup.solution.json")})
    return Workload("cli", cycle, warm)


def make(name, seed, workdir):
    if name == "small-games":
        return small_games(seed)
    if name == "dense-solve":
        return dense_solve(seed)
    if name == "iterate-converge":
        return iterate_converge(seed)
    if name == "cli":
        return cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
