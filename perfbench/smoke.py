"""Smoke test of the benchmark, from the root of a ccve checkout:

    python3 perfbench/smoke.py

1. Runs every workload once timed and once traced at the shortest length
   (--seconds 1; the timed run still makes its minimum number of cycles) and
   asserts that each prints every metric BENCHMARK.json names, with its unit,
   and passes the correctness gate.
2. Feeds the gate corrupted reference values (the pinned scalar slope, a QZ
   solution, the direct L1 an iteration is compared with, a CLI solution
   file) and asserts that each is reported as a violation.
3. Runs the benchmark in a directory that holds only BENCHMARK.json and the
   benchmark, and asserts that it exits non-zero without printing a result.

Exit code 0 when every assertion holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}, \
        [w["name"] for w in bench["workloads"]]


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_runs(problems):
    for trace in (0, 1):
        expected, workloads = expected_metrics(trace)
        for workload in workloads:
            done = run_bench(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct or nothing attempted")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"ok   {label}: {result['attempted']} ops, {result['failed']} failed")


def check_gate(problems):
    """Each corrupted reference must produce exactly the expected violation."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import checks
    import workloads
    from ccve import builders, equilibrium, lft

    def expect_violation(label, action):
        gate = checks.Gate()
        action(gate)
        if gate.violations:
            print(f"ok   corrupted {label}: {gate.violations[0][:90]}")
        else:
            problems.append(f"corrupted {label} passed the gate")

    warm = workloads.warmup_game()
    sol = equilibrium.solve_ccve(warm.game)
    clean = checks.Gate()
    clean.solution(warm, sol)
    if clean.violations:
        problems.append(f"clean warm-up solution failed the gate: {clean.violations}")
    pinned = dataclasses.replace(warm, pinned_L1=warm.pinned_L1 + 1e-9)
    expect_violation("pinned slope -2 + sqrt(3)", lambda gate: gate.solution(pinned, sol))

    game = workloads.Game("2x3", builders.example1_game())
    schur = equilibrium.solve_ccve(game.game)
    qz = equilibrium.solve_via_generalized(game.game)
    bad_qz = dataclasses.replace(qz, L1=qz.L1 + 1e-6)

    def route(gate):
        gate.solution(game, schur)
        gate.solution(game, bad_qz, route="qz")

    expect_violation("QZ solution", route)
    trace = lft.iterate(game.game, lft.IterationConfig(tol=1e-10))
    expect_violation("direct L1 of an iteration",
                     lambda gate: gate.iteration(game, trace, schur.L1 + 1e-5))

    tmp = os.path.join(ROOT, ".perfbench_work", "smoke-gate")
    os.makedirs(tmp, exist_ok=True)
    try:
        path = os.path.join(tmp, "solution.json")
        equilibrium.save_solution(schur, path)
        op = workloads.Op("solve", game, argv=("solve",), expect={"solution": path})
        reference = dataclasses.replace(schur, L1=schur.L1 + np.full_like(schur.L1, 1e-6))
        expect_violation("CLI reference solution",
                         lambda gate: gate.cli(op, 0, "", "", reference))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory(problems):
    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench(bare, "small-games", 0)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        if done.returncode == 0 or last[0].startswith("{"):
            problems.append("run without src/ccve did not fail cleanly")
        else:
            print(f"ok   bare directory: exit {done.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    problems = []
    check_gate(problems)
    check_bare_directory(problems)
    check_runs(problems)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
