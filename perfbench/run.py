"""ccve benchmark: one workload, timed or traced, from a checkout's root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: small-games, dense-solve, iterate-converge, cli (see README.md).
With --trace 0 the last line of stdout is the end-to-end result,
with --trace 1 the per-layer result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The two lines before it are the provenance block (library versions, BLAS
threads, nproc, seed, git SHA, src/ccve line count) and run details.  Exit
code 0 when every output passed the correctness gate, 1 when one did not, 2
when the run could not be made (for example when src/ccve is missing).

The workload runs in one child process with one BLAS thread.  Its set-up
(interpreter start, importing ccve and scipy, generating the games, one
warm-up operation) is measured SETUP_RUNS times, each in a fresh
interpreter, as CPU time scaled to the nominal speed (see worker.py and
speed.py for why), and setup_s is the median.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small-games", "dense-solve", "iterate-converge", "cli")
SETUP_RUNS = 3
TIMEOUT_S = 170  # for the whole run, set-up runs included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return done.stdout.strip() or "unknown"


class Worker:
    """One worker process, stopped by a deadline."""

    def __init__(self, root, args, extra, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
               "--workload", args.workload, "--seed", str(args.seed), *extra]
        env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
        self.deadline = deadline
        # A session of its own, so that stop() also ends its ccve children.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=root, start_new_session=True)

    def result(self):
        """The JSON object on the worker's last stdout line (None if none)."""
        out, _ = self.proc.communicate(timeout=max(self.deadline - time.perf_counter(), 0.0))
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker failed with exit code {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None

    def stop(self):
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def run_worker(root, args, extra, deadline):
    worker = Worker(root, args, extra, deadline)
    try:
        result = worker.result()
    finally:
        worker.stop()
    if result is None:
        raise RuntimeError("worker printed no result")
    return result


def run(root, args):
    deadline = time.perf_counter() + TIMEOUT_S
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = [run_worker(root, args, ["--setup-only"], deadline)
             for _ in range(SETUP_RUNS - 1 if not args.trace else 0)]
    result = run_worker(root, args, extra, deadline)
    if not args.trace:
        setup.append(result.pop("setup"))
        result["metrics"]["setup_s"] = (statistics.median(s["setup_s"] for s in setup), "s")
    return result, setup


def main(argv=None):
    ap = argparse.ArgumentParser(description="ccve benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ccve", "__init__.py")):
        print("error: run from the root of a ccve checkout (src/ccve not found)",
              file=sys.stderr)
        return 2
    try:
        result, setup = run(root, args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    prov = result.pop("provenance")
    prov["git_sha"] = git_sha(root)
    detail = {k: result[k] for k in ("cycles", "samples", "op_seconds", "reference_ms",
                                     "checked", "trace_file") if k in result}
    detail["setup_runs"] = setup
    report = {"correct": result["correct"], "attempted": result["attempted"],
              "failed": result["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in sorted(result["metrics"].items())}}
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    mode = "trace" if args.trace else "bench"
    with open(os.path.join(out_dir, f"BENCH_{mode}-{args.workload}-seed{args.seed}.json"),
              "w") as fh:
        json.dump({"provenance": prov, "detail": detail,
                   "violations": result["violations"], **report}, fh, indent=1)
    for violation in result["violations"]:
        print(f"VIOLATION {violation}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print("detail " + json.dumps(detail))
    print(json.dumps(report))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
