"""The machine's speed, read beside the jobs from fixed reference kernels.

A shared host runs this benchmark at a speed that changes by a third or
more for seconds to minutes at a time, for every job alike, and neither a
fastest-of-passes nor a median-of-passes figure undoes a run that stays
slow throughout. So the timed phase reads the speed between jobs: about
every EVERY_S seconds it times four fixed kernels that do not touch symba,
each the fastest of a short burst. They stand for the kinds of work the
jobs do, which a slow host slows by different amounts: an interpreter-bound
loop, a small numpy integer product, a gather from a table larger than L2,
and dict and tuple churn. A job's latency is then scaled by how fast the
machine ran around it:

    scaled = measured * REFERENCE_S / (sum of the kernel times read around the job)

`REFERENCE_S` is a constant, so a job that does more work reads slower
whatever the machine's speed, and the scaled figures stay in seconds close
to what the machine measures when nothing slows it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

EVERY_S = 0.15  # read the speed once per this much time in the timed phase
BURST = 3  # each reading takes the fastest of this many runs of each kernel
# The kernels' summed time when nothing slows the machine, on the 2-core
# Intel Xeon VM the benchmark was tuned on (Python 3.11, numpy 2.4). It is
# only the unit of the scaled figures.
REFERENCE_S = 0.00147

_MATRIX = (np.arange(80 * 80, dtype=np.int64).reshape(80, 80) * 7919) % 5
_TABLE = (np.arange(1 << 20, dtype=np.int64) * 7919) % 5  # 8 MB
_INDEX = (np.arange(1 << 15, dtype=np.int64) * 40503) % (1 << 20)
_KEYS = [(i * 7919) % 100003 for i in range(600)]


def _loop():
    s = 0
    for i in range(6000):
        s += i * i % 7
    return s


def _product():
    return (_MATRIX @ _MATRIX) % 7


def _gather():
    return _TABLE[_INDEX].sum()


def _objects():
    d = {(k, k & 7): [k] for k in _KEYS}
    return sorted(d.items())[:3]


KERNELS = (_loop, _product, _gather, _objects)


def _fastest(kernel) -> float:
    best = float("inf")
    for _ in range(BURST):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Meter:
    """Readings (time taken, seconds of each kernel), at most every EVERY_S."""

    def __init__(self):
        self.readings = []
        self.read()

    def read(self) -> None:
        self.readings.append((time.perf_counter(), *(_fastest(k) for k in KERNELS)))

    def between_jobs(self) -> None:
        if time.perf_counter() - self.readings[-1][0] >= EVERY_S:
            self.read()

    def reference(self, readings=None) -> float:
        """Median summed kernel time of the readings (default: all of them)."""
        return statistics.median(sum(r[1:]) for r in readings or self.readings)

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the reference time around [start, end].

        The readings used are the last one before the interval, every one
        inside it and the first one after it.
        """
        times = [r[0] for r in self.readings]
        lo = max(0, bisect.bisect_right(times, start) - 1)
        hi = min(len(times), bisect.bisect_left(times, end) + 1)
        return REFERENCE_S / self.reference(self.readings[lo:hi])
