"""Run one benchmark workload in one Python process.

Started by run.py, which reads the result from the last line of stdout.

    worker.py --root DIR --workload NAME --seed N --seconds S --trace 0|1
    worker.py --root DIR --workload NAME --seed N --setup-only

Times are CPU time, not wall time: this process's thread CPU time for an
in-process call, a ccve child's user + system time for a subprocess.  On a
shared virtual machine the vCPU is lent to other tenants in bursts (steal
time in /proc/stat), which wall time would count.  CPU time still moves with
the speed the host gives the vCPU, so every reported time is scaled to a
nominal speed measured on a reference computation (see speed.py).

The timed run repeats whole cycles of the workload's operations until the
operations have taken --seconds.  An operation's time excludes the
correctness checks, which run between operations.  Each operation's time is
the median of its repeats in the run, and the percentiles are taken over the
cycle's operations.  Between its operations each workload also probes, on
the fixed 2x3 game, the end-to-end paths its own operations do not take (for
example the ccve subprocess on dense-solve), so that every workload reports
every end-to-end metric.

The traced run (--trace 1) replays a fixed number of cycles, running each
operation once untraced and once traced, and reports the per-layer metrics
of the traced runs and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings

import cli_child

HERE = os.path.dirname(os.path.abspath(__file__))

# Probe repeats, spread over the timed loop (cli: 4 subcommands in turn).
PROBE_COUNTS = {"solve": 200, "qz": 51, "iterate": 200, "cli": 8}
# The end-to-end paths each workload's own operations take.
NATIVE = {
    "small-games": ("solve", "iterate"),
    "dense-solve": ("solve", "qz"),
    "iterate-converge": ("iterate",),
    "cli": ("cli",),
}
# Fewest whole cycles a timed run makes, so that each operation's median
# has at least 3 repeats.
MIN_CYCLES = {"small-games": 3, "dense-solve": 3, "iterate-converge": 3, "cli": 3}
# Cycles replayed by the traced run (fixed, so that counts repeat exactly).
TRACE_CYCLES = {"small-games": 4, "dense-solve": 1, "iterate-converge": 1, "cli": 1}
IMPORT_SAMPLES = 5
# Reference samples taken right after set-up, to scale the set-up time.
SETUP_REFERENCE_SAMPLES = 5


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default, 'inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Executes operations, records their timings, and checks their outputs."""

    def __init__(self, root, workdir, tracer=None):
        from ccve import equilibrium, lft
        from ccve.errors import CcveError

        import checks
        import speed
        import workloads

        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.equilibrium, self.lft, self.CcveError = equilibrium, lft, CcveError
        self.tol = workloads.ITER_TOL
        self.gate = checks.Gate()
        # path -> {operation key: [(ms, speed mark), ...]}; the key is the
        # operation's place in the cycle, or "probe-<kind>" for a probe.
        self.samples = {"solve": {}, "qz": {}, "iterate": {}, "cli": {}}
        self.speed = speed.Speed()
        self.attempted = 0
        self.failed = 0
        self.op_time = 0.0
        self.child_rss_kb = 0
        self.first_cycle_rss_kb = None  # (this process, largest child)
        self._reference = {}
        self._ops = 0

    # --- executing ------------------------------------------------------------

    def _call(self, fn, *args):
        t0 = time.thread_time()
        try:
            result, err = fn(*args), None
        except self.CcveError as exc:
            result, err = None, exc
        return time.thread_time() - t0, result, err

    def _iterate(self, op):
        cfg = self.lft.IterationConfig(mode=op.mode, tol=self.tol)
        return self._call(self.lft.iterate, op.game.game, cfg)

    def execute(self, op, traced):
        """Run one operation; return ([(path, seconds)], outcome)."""
        if op.argv:
            dt, out = self.spawn(op.argv, traced)
            return [("cli", dt)], out
        if op.kind == "iterate":
            dt, trace, err = self._iterate(op)
            return [("iterate", dt)], (trace, err)
        if op.kind == "solve+iterate":
            dt1, sol, err1 = self._call(self.equilibrium.solve_ccve, op.game.game)
            dt2, trace, err2 = self._iterate(op)
            return [("solve", dt1), ("iterate", dt2)], (sol, err1, trace, err2)
        solve = {"solve": self.equilibrium.solve_ccve,
                 "qz": self.equilibrium.solve_via_generalized}[op.kind]
        dt, sol, err = self._call(solve, op.game.game)
        return [(op.kind, dt)], (sol, err)

    def spawn(self, argv, traced):
        """One ccve subprocess; returns (CPU seconds, (exit code, stdout, stderr, spans))."""
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        trace_path = os.path.join(self.workdir, "child.trace.json")
        rss_path = os.path.join(self.workdir, "child.rss")
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                   PERFBENCH_RSS_OUT=rss_path)
        if traced:
            env["PERFBENCH_TRACE_OUT"] = trace_path
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), *argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
        pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        dt = usage.ru_utime + usage.ru_stime
        with open(rss_path) as fh:
            self.child_rss_kb = max(self.child_rss_kb, int(fh.read()))
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        spans = None
        if traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                spans = json.load(fh)
            os.remove(trace_path)
        return dt, (os.waitstatus_to_exitcode(status), stdout, stderr, spans)

    # --- checking -------------------------------------------------------------

    def reference(self, g):
        """In-process auto solve of a game, checked once; None if it has none."""
        if g.key not in self._reference:
            try:
                sol = self.equilibrium.solve_ccve(g.game)
            except self.CcveError:
                sol = None
            if sol is not None:
                self.gate.solution(g, sol)
            self._reference[g.key] = sol
        return self._reference[g.key]

    def _converged(self, g, trace, err, direct=None):
        if err is not None or trace.status != "converged":
            return False
        if direct is None:
            direct = self.reference(g)
        self.gate.iteration(g, trace, None if direct is None else direct.L1)
        return True

    def check(self, op, outcome):
        """Apply the correctness gate; return True when the operation succeeded."""
        g = op.game
        if op.argv:
            code, stdout, stderr, _ = outcome
            ref = self.reference(g) if op.expect_exit == 0 else None
            return self.gate.cli(op, code, stdout, stderr, ref)
        if op.kind == "iterate":
            return self._converged(g, *outcome)
        if op.kind == "solve+iterate":
            sol, err1, trace, err2 = outcome
            if sol is not None:
                self.gate.solution(g, sol)
            converged = self._converged(g, trace, err2, direct=sol)
            return err1 is None and converged
        sol, err = outcome
        if sol is not None:
            self.gate.solution(g, sol, route="qz" if op.kind == "qz" else "schur")
        return err is None

    # --- loops ----------------------------------------------------------------

    def run(self, op, record="op", traced=False, key=None):
        """Execute and check one operation.

        ``record`` is "op" for a workload operation (counted, timed and
        sampled), "sample" for a probe (sampled only) or None (warm-up).
        ``key`` names the operation among the samples: its repeats share it.
        """
        if self.tracer is not None:
            self.tracer.op = self._ops
            self.tracer.enabled = traced
        self._ops += 1
        try:
            timings, outcome = self.execute(op, traced)
        except Exception:  # a crash is a correctness failure, not a CcveError
            self.gate.fail(f"{op.game.key} [{op.kind}]", traceback.format_exc(limit=3))
            timings, outcome = [], None
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        ok = outcome is not None and self.check(op, outcome)
        if traced and op.argv and outcome is not None and outcome[3] is not None:
            self.tracer.extend(outcome[3], self.tracer.op)
        if record:
            for path, dt in timings:
                self.samples[path].setdefault(key, []).append((1e3 * dt, self.speed.mark()))
        if record == "op":
            self.attempted += 1
            self.failed += not ok
            self.op_time += sum(dt for _, dt in timings)
        return ok

    def timed_cycles(self, cycle, seconds, min_cycles, probes):
        """Repeat whole cycles until the operations have taken ``seconds``.

        The probes and the reference computation run between operations,
        spread evenly over the first ``seconds`` of operation time, so that
        they see the same machine state as the operations; they do not count
        in the operation time.
        """
        cycles = done = 0
        while self.op_time < seconds or cycles < min_cycles:
            for i, op in enumerate(cycle):
                self.run(op, key=i)
                self.speed.tick(self.op_time)
                while done < min(len(probes), int(len(probes) * self.op_time / seconds)):
                    self.probe(probes[done])
                    done += 1
            cycles += 1
            if cycles == 1:
                self.first_cycle_rss_kb = (cli_child.peak_rss_kb(), self.child_rss_kb)
        for op in probes[done:]:
            self.probe(op)
        return cycles

    def probe(self, op):
        if not self.run(op, record="sample", key=f"probe-{op.kind}"):
            self.gate.fail(f"probe {op.kind} on {op.game.key}", "probe operation failed")


def probe_ops(workload, workdir):
    """Operations on the fixed 2x3 game for the paths the workload lacks.

    Each path's probes are spread evenly through the returned list, so that
    every path is sampled across the whole timed loop.
    """
    import workloads
    from ccve.core import save_game

    small = workloads.example_game()
    spread = []
    for path in ("solve", "qz", "iterate", "cli"):
        if path in NATIVE[workload]:
            continue
        n = PROBE_COUNTS[path]
        if path == "cli":
            small.path = os.path.join(workdir, "probe-2x3.game.json")
            save_game(small.game, small.path)
            cmds = workloads.cli_ops(os.path.join(workdir, "probe-2x3"), small)
            ops = [cmds[i % len(cmds)] for i in range(n)]
        else:
            ops = [workloads.Op(path, small)] * n
        spread += [((i + 0.5) / n, op) for i, op in enumerate(ops)]
    return [op for _, op in sorted(spread, key=lambda item: item[0])]


def import_ms(root):
    """Median CPU time of `import ccve.cli` in a fresh interpreter."""
    import subprocess

    code = ("import time; t = time.process_time(); import ccve.cli; "
            "print(time.process_time() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(1e3 * float(done.stdout))
    return statistics.median(times)


def provenance(root, workload, seed):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = os.path.join(root, "src", "ccve")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "src_ccve_lines": lines,
    }


def timed_metrics(runner, workload, setup_s):
    """End-to-end metrics, every time scaled to the nominal speed.

    A latency percentile is taken over the operations, each operation
    represented by the median of its repeats' scaled times.  Peak RSS is
    that of the set-up and the first cycle, in which every operation has run
    once: later cycles add only heap fragmentation, which depends on the
    order of the operations.  On cli it is the largest ccve child's.
    """
    speed = runner.speed
    rss_kb = runner.first_cycle_rss_kb[1 if workload == "cli" else 0]
    scaled = {path: {key: [speed.scaled(ms, mark) for ms, mark in times]
                     for key, times in samples.items()}
              for path, samples in runner.samples.items()}
    s = {path: [statistics.median(times) for times in samples.values()]
         for path, samples in scaled.items()}
    op_ms = sum(sum(times) for samples in scaled.values()
                for key, times in samples.items() if isinstance(key, int))
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (1e3 * runner.attempted / op_ms, "ops/s"),
        "fail_ratio": (runner.failed / runner.attempted, "failed/attempted"),
        "solve_ms.p50": (percentile(s["solve"], 50), "ms"),
        "solve_ms.p90": (percentile(s["solve"], 90), "ms"),
        "qz_solve_ms.p50": (percentile(s["qz"], 50), "ms"),
        "iterate_ms.p50": (percentile(s["iterate"], 50), "ms"),
        "iterate_ms.p90": (percentile(s["iterate"], 90), "ms"),
        "cli_ms.p50": (percentile(s["cli"], 50), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    import ccve

    if not os.path.abspath(ccve.__file__).startswith(os.path.join(root, "src", "")):
        raise SystemExit(f"ccve imported from {ccve.__file__}, not from {root}/src")
    # NotCertifiedMin fires on every iteration step at 100x120; printing it
    # would time the terminal, not the solver.
    warnings.simplefilter("ignore")
    import speed
    import tracing
    import workloads

    workdir = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.op, tracer.enabled = -1, True  # game generation is a layer too
        wl = workloads.make(args.workload, args.seed, workdir)
        if tracer is not None:
            tracer.enabled = False
            tracer.uninstall()
        runner = Runner(root, workdir, tracer)
        runner.run(wl.warmup, record=None)
        # Set-up CPU time: interpreter start, imports, game generation and the
        # warm-up operation, with the warm-up's ccve child on cli.
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        setup = time.process_time() + children.ru_utime + children.ru_stime
        runner.speed.sample(SETUP_REFERENCE_SAMPLES)
        reference = runner.speed.reference_ms()
        setup = {"setup_s": setup * speed.NOMINAL_MS / reference,
                 "setup_cpu_s": setup, "reference_ms": reference}
        if args.setup_only:
            print(json.dumps(setup), flush=True)
            return 0
        if args.trace:
            result = traced_run(runner, wl, args, root)
        else:
            result = timed_run(runner, wl, args, setup)
        result["correct"] = not runner.gate.violations
        result["violations"] = runner.gate.violations[:20]
        result["checked"] = runner.gate.checked
        result["provenance"] = provenance(root, args.workload, args.seed)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(runner, wl, args, setup):
    probes = probe_ops(wl.name, runner.workdir)
    cycles = runner.timed_cycles(wl.cycle, args.seconds, MIN_CYCLES[wl.name], probes)
    return {"attempted": runner.attempted, "failed": runner.failed, "cycles": cycles,
            "op_seconds": runner.op_time, "setup": setup,
            "reference_ms": runner.speed.reference_ms(),
            "samples": {k: sum(map(len, v.values())) for k, v in runner.samples.items()},
            "metrics": timed_metrics(runner, wl.name, setup["setup_s"])}


def traced_run(runner, wl, args, root):
    import tracing

    # Each operation runs once untraced and once traced, back to back, so
    # that both sides of the overhead see the same machine state; which side
    # goes first alternates, so that neither always finds the caches warm.
    n = TRACE_CYCLES[wl.name]
    setup_spans = len(runner.tracer.spans)
    untraced_time = 0.0
    for _ in range(n):
        for i, op in enumerate(wl.cycle):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    runner.tracer.install()
                    runner.run(op, traced=True)
                    runner.tracer.uninstall()
                else:
                    mark = runner.op_time
                    runner.run(op)
                    untraced_time += runner.op_time - mark
    traced_time = runner.op_time - untraced_time
    untraced = n * len(wl.cycle) / untraced_time
    traced = n * len(wl.cycle) / traced_time
    spans = runner.tracer.spans
    metrics = tracing.layer_metrics(spans)
    metrics["cli.import.ms"] = (import_ms(root), "ms")
    metrics["trace.untraced_ops_per_s"] = (untraced, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced, "ops/s")
    metrics["trace.overhead"] = (1.0 - traced / untraced, "ratio")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent", "op", "detail"],
                   "spans": spans, "setup_spans": setup_spans,
                   "kernel_orders": tracing.kernel_orders(spans)}, fh)
    return {"attempted": runner.attempted, "failed": runner.failed, "cycles": n,
            "trace_file": os.path.relpath(path, root), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
