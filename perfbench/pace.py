"""Times at a fixed reference speed of the machine.

The speed of a shared machine drifts: a fixed pure-Python loop runs 10 to
30 % slower or faster from one stretch of seconds to the next, and a
process runs at the speed of whichever CPU it lands on.  Raw times of the
same job therefore spread across runs by more than any useful bound.

While a timed run is in progress, a `Sampler` thread runs a fixed
pure-Python kernel (benchmark code, never nlie code) every INTERVAL_S and
records its CPU time: the machine's current speed.  The benchmark and
every child process it starts are pinned to one CPU (`pin`), so the kernel
runs on the CPU the work runs on, between the work's own time slices.  A
time measured over [start, end] is then scaled by REFERENCE_S over the
median kernel time sampled in that window (widened by MARGIN_S): the time
the work would have taken on a machine where one kernel run takes
REFERENCE_S.  The scale is benchmark code and the same on every commit, so
a change that makes nlie faster makes its paced times shorter by the same
share; the kernel itself does not call nlie.

The sampler costs about 2.5 % of the CPU (a 0.5 ms kernel every 20 ms),
on every commit alike.
"""

from __future__ import annotations

import os
import statistics
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

KERNEL_REPS = 400
# CPU time of one kernel run on a 2.1 GHz Xeon sandbox core (CPython 3.11),
# the harmonic mean over a few seconds; the unit in which paced times read.
REFERENCE_S = 0.0005
INTERVAL_S = 0.02
MARGIN_S = 0.25


def pin() -> int:
    """Pin this process (and the children it starts) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def kernel() -> int:
    """Fixed work shaped like nlie's: small nested tuples, hashing, sorting
    and dict updates."""
    table: dict = {}
    acc = 0
    for i in range(KERNEL_REPS):
        leaf = i & 7
        node = ((leaf, (i >> 3) & 7), ((i >> 6) & 7, leaf ^ 5))
        key = tuple(sorted(node))
        table[key] = table.get(key, 0) + 1
        acc += hash(key) & 1
    return acc + len(table)


def probe() -> float:
    """CPU time of one kernel run: the machine's speed now."""
    start = thread_time()
    kernel()
    return thread_time() - start


class Sampler:
    """Samples the machine's speed in a thread while the block runs.

        with Sampler() as sampler:
            start = perf_counter(); work(); end = perf_counter()
        paced = sampler.paced(end - start, start, end)
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.times: list = []
        self.probes: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        cost = probe()
        self.times.append(perf_counter())
        self.probes.append(cost)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def speed(self, start: float, end: float) -> float:
        """Mean kernel time sampled in [start - MARGIN_S, end + MARGIN_S],
        or over the nearest samples when that window holds none.

        The mean is harmonic, the kernel time at the mean speed: the
        machine switches between a fast and a slow state (kernel times
        about 1.7 apart), and work done over a window is the window's
        length times its mean speed."""
        lo = bisect_left(self.times, start - MARGIN_S)
        hi = bisect_right(self.times, end + MARGIN_S)
        if lo >= hi:
            lo, hi = max(0, lo - 1), min(len(self.times), lo + 1)
        return statistics.harmonic_mean(self.probes[lo:hi])

    def paced(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured in [start, end], at the reference speed."""
        return seconds * REFERENCE_S / self.speed(start, end)
