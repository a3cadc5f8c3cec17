"""Spans and counters around the package's layers, installed from outside.

``Tracer.install()`` replaces each traced public function of ``ccve`` -- in
every ccve module that imported it by name -- with a wrapper that records a
span (name, start, end, parent span, op id, detail), and wraps the numpy and
scipy linear-algebra entry points the package calls.  Nothing under ``src/``
changes.  Spans stay in memory and are written once, when the run ends.

Kernel calls are counted only while a ccve span is open, so the benchmark's
own correctness checks are not counted.  Each kernel call records its matrix
order n; ``computed_flops`` turns that into a textbook operation count
(labelled "computed": it is not a hardware measurement).
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# Traced ccve functions: (module, attribute) -> span name.
LAYERS = [
    ("core", "validate_game"), ("core", "assemble_blocks"), ("core", "load_game"),
    ("core", "eval_cost"), ("core", "riccati_residual_norms"),
    ("spectral", "invariant_subspace"), ("spectral", "generalized_pairs"),
    ("spectral", "eig"),
    ("stability", "certify"),
    ("analysis", "second_order_check"), ("analysis", "nash"),
    ("equilibrium", "solve_ccve"), ("equilibrium", "solve_via_generalized"),
    ("equilibrium", "enumerate_fixed_points"), ("equilibrium", "save_solution"),
    ("lft", "iterate"), ("lft", "lft_cross"), ("lft", "composite_step"),
    ("lft", "offset_cross"), ("lft", "best_response"), ("lft", "predict"),
    ("lft", "write_trace_csv"),
    ("builders", "random_game"), ("builders", "build_lq_game"),
]

# Kernel entry points: (module, attribute) -> kernel name.  np.linalg.cond
# is a full SVD, so it counts as svd.
KERNELS = [
    ("numpy.linalg", "svd", "svd"), ("numpy.linalg", "cond", "svd"),
    ("numpy.linalg", "solve", "solve"), ("numpy.linalg", "eigvals", "eigvals"),
    ("numpy.linalg", "eigvalsh", "eigvalsh"), ("scipy.linalg", "eig", "eig"),
    ("scipy.linalg", "schur", "schur"), ("scipy.linalg.lapack", "dtrsen", "trsen"),
    ("scipy.linalg", "ordqz", "ordqz"),
]
KERNEL_NAMES = ("svd", "solve", "eigvals", "eig", "eigvalsh", "schur", "trsen", "ordqz")


def computed_flops(kernel, n, k=0, nrhs=1):
    """Textbook flop count of one kernel call on an n x n matrix.

    Golub & Van Loan, Matrix Computations, 4th ed.: singular values only
    8/3 n^3; LU solve 2/3 n^3 + 2 n^2 nrhs; nonsymmetric eigenvalues 10 n^3,
    with vectors 25 n^3; symmetric eigenvalues 4/3 n^3; real Schur form with
    Schur vectors 25 n^3; QZ with both transforms 66 n^3.  trsen is bounded
    by k (n - k) adjacent swaps of 18 n flops each.
    """
    if kernel == "svd":
        return 8.0 / 3.0 * n ** 3
    if kernel == "solve":
        return 2.0 / 3.0 * n ** 3 + 2.0 * n * n * nrhs
    if kernel == "eigvals":
        return 10.0 * n ** 3
    if kernel == "eig":
        return 25.0 * n ** 3
    if kernel == "eigvalsh":
        return 4.0 / 3.0 * n ** 3
    if kernel == "schur":
        return 25.0 * n ** 3
    if kernel == "trsen":
        return 18.0 * n * k * (n - k)
    if kernel == "ordqz":
        return 66.0 * n ** 3
    raise ValueError(kernel)


def _shape(x):
    return getattr(x, "shape", None) or ()


def _kernel_detail(kernel, args):
    """(n, k, nrhs) of one kernel call, from its arguments."""
    if kernel == "trsen":
        select, T = args[0], args[1]
        return _shape(T)[0], int(sum(select)), 1
    shape = _shape(args[0]) if args else ()
    n = shape[0] if shape else 0
    nrhs = 1
    if kernel == "solve" and len(args) > 1 and len(_shape(args[1])) == 2:
        nrhs = _shape(args[1])[1]
    return n, 0, nrhs


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _detail(name, args, result):
    """Per-span detail the metrics need: bytes, steps, certificate outcome."""
    if name == "core.load_game":
        return _file_bytes(args[0])
    if name == "equilibrium.save_solution":
        return _file_bytes(args[1])
    if name == "lft.write_trace_csv":
        return _file_bytes(args[2])
    if name == "lft.iterate":
        return len(result.steps) - 1
    if name == "stability.certify":
        return int(bool(result.stable))
    return None


class Tracer:
    """Records spans while enabled; install() once per process."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [name, start, end, parent, op, detail]
        self.stack = []
        self.op = None
        self._restore = []

    def _wrap_layer(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(sid)
            span[1] = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if done:
                    span[5] = _detail(name, args, result)

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, kernel, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not (tracer.enabled and tracer.stack):
                return fn(*args, **kwargs)
            span = ["kernel." + kernel, 0.0, 0.0, tracer.stack[-1], tracer.op,
                    _kernel_detail(kernel, args)]
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap the traced functions wherever ccve bound them."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "ccve" or n.startswith("ccve.")]
        for mod_name, attr in LAYERS:
            mod = importlib.import_module(f"ccve.{mod_name}")
            fn = getattr(mod, attr)
            wrapper = self._wrap_layer(f"{mod_name}.{attr}", fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, value))
                        setattr(m, key, wrapper)
        for mod_name, attr, kernel in KERNELS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_kernel(kernel, fn))

    def uninstall(self):
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()

    def extend(self, spans, op):
        """Append spans recorded in a child process, as part of operation op."""
        base = len(self.spans)
        for name, start, end, parent, _, detail in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               op, detail])


# Layers reported with call count, inclusive and self ms per call.
LAYER_METRICS = (
    "core.validate_game", "core.assemble_blocks", "core.load_game",
    "spectral.invariant_subspace", "spectral.generalized_pairs", "spectral.eig",
    "stability.certify", "analysis.second_order_check", "analysis.nash",
    "equilibrium.save_solution", "lft.write_trace_csv",
    "builders.random_game", "builders.build_lq_game",
)
SOLVES = ("equilibrium.solve_ccve", "equilibrium.solve_via_generalized")
STEP_PARTS = ("lft.lft_cross", "lft.composite_step", "lft.offset_cross")
RECORD_PARTS = ("lft.best_response", "lft.predict", "core.eval_cost",
                "core.riccati_residual_norms")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer numbers from a span list: counts, ms per call, shares, flops."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    parent_name = [spans[s[3]][0] if s[3] >= 0 else "" for s in spans]
    calls, incl, self_t, detail = {}, {}, {}, {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur[i]
        self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
        detail.setdefault(name, []).append(s[5])

    out = {}
    for name in LAYER_METRICS:
        c = calls.get(name, 0)
        out[f"{name}.calls"] = (c, "count")
        out[f"{name}.ms"] = (1e3 * _ratio(incl.get(name, 0.0), c), "ms")
        out[f"{name}.self_ms"] = (1e3 * _ratio(self_t.get(name, 0.0), c), "ms")
    for key, name in (("core.game_json.bytes", "core.load_game"),
                      ("equilibrium.save_solution.bytes", "equilibrium.save_solution"),
                      ("lft.write_trace_csv.bytes", "lft.write_trace_csv")):
        sizes = [d for d in detail.get(name, []) if d is not None]
        out[key] = (_ratio(sum(sizes), len(sizes)), "B")

    auto = calls.get("equilibrium.solve_ccve", 0)
    tried = certified = subspaces = 0
    step_t = record_t = 0.0
    for i, s in enumerate(spans):
        parent = parent_name[i]
        if parent in SOLVES:
            if s[0] in ("spectral.invariant_subspace", "spectral.generalized_pairs"):
                tried += 1
                subspaces += parent == "equilibrium.solve_ccve" and \
                    s[0] == "spectral.invariant_subspace"
            elif s[0] == "stability.certify" and s[5]:
                certified += 1
        elif parent == "lft.iterate":
            if s[0] in STEP_PARTS:
                step_t += dur[i]
            elif s[0] in RECORD_PARTS:
                record_t += dur[i]
    out["spectral.invariant_subspace.calls_per_solve"] = (_ratio(subspaces, auto), "count")
    out["equilibrium.candidates_tried"] = (tried, "count")
    out["equilibrium.candidate_yield"] = (_ratio(certified, tried), "ratio")

    iterations = calls.get("lft.iterate", 0)
    steps = sum(d for d in detail.get("lft.iterate", []) if d is not None)
    out["lft.iterate.calls"] = (iterations, "count")
    out["lft.iterate.steps"] = (steps, "count")
    out["lft.step.ms"] = (1e3 * _ratio(step_t, steps), "ms")
    # One record at the initial point and one after every step.
    out["lft.record.ms"] = (1e3 * _ratio(record_t, steps + iterations), "ms")
    out["lft.record.share"] = (_ratio(record_t, incl.get("lft.iterate", 0.0)), "ratio")

    for kernel in KERNEL_NAMES:
        name = "kernel." + kernel
        c = calls.get(name, 0)
        flops = sum(computed_flops(kernel, *d) for d in detail.get(name, []))
        out[f"{name}.calls"] = (c, "count")
        out[f"{name}.ms"] = (1e3 * _ratio(incl.get(name, 0.0), c), "ms")
        out[f"{name}.mflop_computed"] = (flops / 1e6, "Mflop")
    out["trace.spans"] = (n, "count")
    return out


def kernel_orders(spans):
    """For each kernel, how many calls saw each matrix order n."""
    orders = {}
    for s in spans:
        if s[0].startswith("kernel."):
            hist = orders.setdefault(s[0][7:], {})
            hist[str(s[5][0])] = hist.get(str(s[5][0]), 0) + 1
    return orders
