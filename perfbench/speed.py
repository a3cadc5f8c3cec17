"""The machine's speed during a run, measured on a fixed reference computation.

On the shared 2-core VM this benchmark was tuned on, the speed of a vCPU
drifts with what other tenants of the host run: a fixed computation takes
up to 1.6 times as long for stretches of seconds to minutes, in CPU time as
in wall time (the VM has no hardware counters to count cycles instead).
The operations that run at the same moment slow alike.

A run therefore also times the reference computation below, which uses
numpy and scipy but not ccve, between its operations, and scales each
operation's CPU time by NOMINAL_MS / (the reference's median CPU time
around that operation): milliseconds at the speed at which the reference
takes NOMINAL_MS.  A change to ccve does not change the reference, so it
moves the scaled times by the same share as the raw ones.  Each run prints
its median reference time with its result (the "detail" line).
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.linalg

# Scaled times are at the speed at which reference() takes this many CPU ms:
# about its time on the development VM at its fastest, 1 BLAS thread.
NOMINAL_MS = 1.0
# One reference sample per this much operation CPU time (s).
EVERY_S = 0.05
# Reference samples on each side of an operation that scale its time.
WINDOW = 2

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 40)) + 40.0 * np.eye(40)
_B = _rng.standard_normal((40, 3))
# Twice the L2 cache of the development VM: writing it first leaves the
# reference the same cache state whatever ran before it.
_FLUSH = np.zeros((4 << 20) // 8)


def reference():
    """CPU ms of one reference computation.

    Ten small solves in a Python loop, then an SVD and a Schur form of a
    40x40 matrix: interpreter overhead and LAPACK calls, the mix that ccve's
    own operations make.
    """
    np.add(_FLUSH, 1.0, out=_FLUSH)
    t0 = time.thread_time()
    acc = 0.0
    for i in range(10):
        x = np.linalg.solve(_A, _B)
        acc += float(np.abs(x).sum()) + len({"shape": x.shape, "i": i})
    np.linalg.svd(_A, compute_uv=False)
    scipy.linalg.schur(_A)
    return 1e3 * (time.thread_time() - t0)


class Speed:
    """Reference samples taken through a run."""

    def __init__(self):
        self.samples = []
        self._due = 0.0

    def mark(self):
        """Position of the next sample: tag an operation's time with it."""
        return len(self.samples)

    def tick(self, op_time):
        """Take a sample once ``op_time`` (CPU s of operations) has passed the next one due."""
        if op_time >= self._due:
            self.samples.append(reference())
            self._due = op_time + EVERY_S

    def sample(self, n):
        self.samples.extend(reference() for _ in range(n))

    def reference_ms(self, mark=None):
        """Median reference time: of the whole run, or around ``mark``."""
        if mark is None:
            return statistics.median(self.samples)
        lo = min(max(mark - WINDOW, 0), len(self.samples) - 1)
        return statistics.median(self.samples[lo:mark + WINDOW + 1])

    def scaled(self, ms, mark):
        """An operation's CPU time at the nominal speed."""
        return ms * NOMINAL_MS / self.reference_ms(mark)
