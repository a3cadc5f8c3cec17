"""Re-measure the figures of ROADMAP.md's "Baseline" section with the harness.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/baseline.py

Run from the root of a ccve checkout.  Times each figure through the
benchmark's tracer (medians over repeats, one BLAS thread) and prints one
line per figure: the ROADMAP value, the harness value, and whether the
harness reproduces it.  BASELINE.md records one run of this script.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
from ccve import builders, equilibrium, lft  # noqa: E402
from ccve.errors import NoStableSelection  # noqa: E402


def measure(fn, repeats):
    """Median wall ms of fn() and the per-layer metrics of its traced runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(1e3 * (time.perf_counter() - t0))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op, tracer.enabled = 0, True
    try:
        for _ in range(repeats):
            fn()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    return statistics.median(times), tracing.layer_metrics(tracer.spans), result


def iterate(game):
    # ROADMAP's step counts (33 at 2x3, 40 at 50x60) are those of tol=1e-13,
    # the tolerance of scripts/run_large_benchmark.py; the benchmark's own
    # workloads iterate to 1e-10.
    return lambda: lft.iterate(game, lft.IterationConfig(mode="cross", tol=1e-13))


def row(figure, roadmap, harness, reproduced):
    print(f"| {figure} | {roadmap} | {harness} | {'yes' if reproduced else 'no'} |")


def main():
    warnings.simplefilter("ignore")
    print("| figure | ROADMAP | harness | reproduced |")
    print("| --- | --- | --- | --- |")

    g23 = builders.example1_game()
    ms, _, _ = measure(lambda: equilibrium.solve_ccve(g23), 200)
    row("2x3 solve_ccve (auto)", "1.1 ms", f"{ms:.2f} ms", 0.7 <= ms <= 1.6)
    ms, m, tr = measure(iterate(g23), 30)
    steps = tr.status_iter
    row("2x3 iterate (tol 1e-13)", "33 steps, 14 ms, 0.43 ms/step",
        f"{steps} steps, {ms:.1f} ms, {ms / steps:.2f} ms/step",
        steps == 33 and 9 <= ms <= 20)

    g50 = builders.random_game(50, 60, seed=0)
    _, m, _ = measure(lambda: equilibrium.solve_ccve(g50), 15)
    stages = [("validate_game", "core.validate_game", 2.3),
              ("assemble_blocks", "core.assemble_blocks", 2.8),
              ("Schur+trsen (invariant_subspace)", "spectral.invariant_subspace", 4.2),
              ("certify", "stability.certify", 2.3)]
    for label, key, ref in stages:
        got = m[f"{key}.ms"][0]
        row(f"50x60 s0 {label}", f"{ref} ms", f"{got:.2f} ms", 0.5 * ref <= got <= 1.5 * ref)
    ms, _, _ = measure(lambda: equilibrium.solve_ccve(g50), 15)
    row("50x60 s0 solve_ccve (auto)", "28-37 ms", f"{ms:.1f} ms", 20 <= ms <= 45)
    ms, _, _ = measure(lambda: equilibrium.solve_via_generalized(g50), 10)
    _, mq, _ = measure(lambda: equilibrium.solve_via_generalized(g50), 5)
    qz = mq["spectral.generalized_pairs.ms"][0]
    row("50x60 s0 QZ route (generalized_pairs)", "17.9 ms",
        f"{qz:.1f} ms per call, 2 calls per solve, {ms:.1f} ms per solve",
        0.5 * 17.9 <= qz <= 1.5 * 17.9)
    ms, m, tr = measure(iterate(g50), 5)
    steps = tr.status_iter
    svd_share = m["kernel.svd.ms"][0] * m["kernel.svd.calls"][0] / 5 / ms
    row("50x60 s0 iterate (tol 1e-13)", "40 steps, 95-100 ms, 2.4 ms/step",
        f"{steps} steps, {ms:.0f} ms, {ms / steps:.2f} ms/step",
        steps == 40 and 70 <= ms <= 130)
    # lft.step.ms includes the cond (SVD) check inside each map and offset
    # call; ROADMAP's "bare map" figure leaves it out.
    row("50x60 s0 map step (lft.step.ms, with its cond checks)", "0.4 ms/step bare map",
        f"{m['lft.step.ms'][0]:.2f} ms/step", 0.2 <= m["lft.step.ms"][0] <= 0.6)
    row("50x60 s0 np.linalg.cond in iterate", "245 calls, 50-65% of iterate",
        f"{m['kernel.svd.calls'][0] // 5} SVD calls (cond and svd), {100 * svd_share:.0f}%",
        m["kernel.svd.calls"][0] // 5 >= 245 and 0.4 <= svd_share <= 0.7)

    g100 = builders.random_game(100, 120, seed=0)
    ms, _, sol = measure(lambda: equilibrium.solve_ccve(g100), 5)
    row("100x120 s0 solve_ccve", "about 0.2 s", f"{ms / 1e3:.3f} s", 0.1 <= ms / 1e3 <= 0.3)
    ms, _, tr = measure(iterate(g100), 1)
    row("100x120 s0 cross iterate (tol 1e-13)", "max_iters=100 in about 1.5 s, xi_max 0.95-0.99",
        f"{tr.status} at {tr.status_iter} in {ms / 1e3:.2f} s, xi_max {sol.xi_max[0]:.3f}",
        tr.status == "max_iters" and 1.0 <= ms / 1e3 <= 2.0)

    for d1, d2, seed in ((150, 180, 1), (200, 240, 0)):
        game = builders.random_game(d1, d2, seed=seed)
        try:
            equilibrium.solve_ccve(game)
            got, ok = "solved", False
        except NoStableSelection as exc:
            got, ok = f"NoStableSelection: {str(exc).split(';')[0]}", "0 of 0" in str(exc)
        row(f"{d1}x{d2} s{seed} auto solve", "NoStableSelection: 0 of 0 candidates", got, ok)

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    code = "import time; t = time.perf_counter(); import ccve.cli; print(time.perf_counter() - t)"
    runs = [1e3 * float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                       capture_output=True, text=True).stdout)
            for _ in range(5)]
    ms = statistics.median(runs)
    row("import ccve.cli (fresh interpreter)", "0.3-0.45 s", f"{ms / 1e3:.2f} s",
        0.3 <= ms / 1e3 <= 0.45)


if __name__ == "__main__":
    main()
