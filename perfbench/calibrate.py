"""Machine-speed calibration for the timed calls.

A shared host runs the same Python code at speeds that differ by up to 2x
from one few-second stretch to the next. A fixed calibration kernel, run
just before and just after each timed call, measures how fast the machine
was while the call ran. A timing is then reported in reference seconds:
the wall time multiplied by ``REF_KERNEL_S`` over the kernel's time around
the call, that is, the time the call would have taken with the machine
running the kernel in ``REF_KERNEL_S``.

The kernel is a plain Dijkstra search on a fixed grid, written here rather
than imported, so that no change to the package can change it. It uses the
same kinds of operations as the package's searches: a binary heap, dicts
keyed by cell tuples and neighbour loops. The garbage collector is paused
while it runs, so that the heap the program keeps alive does not slow it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

SIDE = 24
BLOCKED = frozenset((x, y) for x in range(SIDE) for y in range(SIDE) if (7 * x + 13 * y) % 11 == 0)
# The kernel's time with the machine at its fastest, measured on a 2-vCPU
# shared x86-64 virtual machine with Python 3.11. Only the ratio to the
# kernel's time in a run matters; this constant just makes the unit seconds.
REF_KERNEL_S = 0.0008
REPEATS = 3  # kernel runs per reading; the reading is their median


def kernel() -> int:
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[(x, y)]:
            continue
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nxt[0] < SIDE and 0 <= nxt[1] < SIDE and nxt not in BLOCKED:
                nd = d + 1 + ((nxt[0] ^ nxt[1]) & 1)
                if nd < dist.get(nxt, 1 << 30):
                    dist[nxt] = nd
                    heapq.heappush(heap, (nd, nxt))
    return len(dist)


class Calibrator:
    """Reads the machine's speed between timed calls."""

    def __init__(self):
        kernel()  # warm up
        self.readings: list[float] = []
        self.last = self.read()

    def read(self) -> float:
        """Median kernel time now; it also becomes ``last``."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = statistics.median(times)
        self.readings.append(self.last)
        return self.last

    def scale(self, before: float) -> float:
        """Factor from wall seconds to reference seconds for a call that ran
        between the reading ``before`` and a new reading taken now."""
        return REF_KERNEL_S / ((before + self.read()) / 2.0)


class NoCalibrator:
    """Stand-in for traced runs, whose times stay in wall seconds."""

    last = 0.0

    def scale(self, before: float) -> float:
        return 1.0
