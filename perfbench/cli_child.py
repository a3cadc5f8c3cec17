"""A `ccve` command as the benchmark runs it: `python3 cli_child.py <ccve arguments>`.

Runs ccve.cli.main in this fresh interpreter, as `python3 -m ccve.cli` would,
and on exit writes this process's peak RSS in kB (VmHWM) to
$PERFBENCH_RSS_OUT.  The parent cannot take it from wait4: a child spawned
with vfork semantics starts its ru_maxrss from the parent's.

With $PERFBENCH_TRACE_OUT set, it also installs the benchmark's tracer and
writes the recorded spans there as JSON.  The import of ccve.cli is then
itself recorded, as a "cli.import" span.
"""

import json
import os
import sys
import time


def peak_rss_kb():
    """VmHWM of this process (kB): the peak RSS of its own address space."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    t0 = time.perf_counter()
    import ccve.cli

    t1 = time.perf_counter()
    trace_out = os.environ.get("PERFBENCH_TRACE_OUT")
    tracer = None
    if trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.spans.append(["cli.import", t0, t1, -1, None, None])
        tracer.op, tracer.enabled = 0, True
    try:
        return ccve.cli.main(sys.argv[1:])
    finally:
        if tracer is not None:
            tracer.enabled = False
            with open(trace_out, "w") as fh:
                json.dump(tracer.spans, fh)
        with open(os.environ["PERFBENCH_RSS_OUT"], "w") as fh:
            fh.write(str(peak_rss_kb()))


if __name__ == "__main__":
    sys.exit(main())
