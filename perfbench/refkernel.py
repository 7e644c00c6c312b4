"""Reference kernel for normalising wall time against host speed.

On a shared host the speed of the CPU drifts by up to a factor of two
within a few seconds, and the drift shows in CPU time as much as in wall
time, so it cannot be filtered out by measuring process time instead.
``wall_norm`` therefore measures an iteration in units of a fixed
stdlib-only kernel, timed just before, during and just after it.  During
the iteration an interval timer runs the kernel every ``PERIOD_S`` seconds;
the time those runs take is excised from the iteration's own time through
:meth:`Sampler.clock`.  Each stretch of work between two kernel runs is
divided by the mean of those two kernel times, so a speed change part-way
through an iteration is followed rather than averaged over.

This module never imports ``sullivan``: the reference must not change when
the program does.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
UNITS_PER_REF = 100  # one reference time is 100 units, about 0.4 s here

_SIZE = 8
_CHURN = 6000


def reference_unit() -> int:
    """A dense Fraction elimination plus a dict-churn loop, about 4 ms."""
    x = 12345
    rows = []
    for _ in range(_SIZE):
        row = []
        for _ in range(_SIZE):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction(x % 19 - 9, x % 7 + 1))
        rows.append(row)
    rank = 0
    for col in range(_SIZE):
        pivot = next((i for i in range(rank, _SIZE) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(_SIZE):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    churn: dict[int, int] = {}
    for k in range(_CHURN):
        key = (k * 7919) % 4093
        churn[key] = churn.get(key, 0) + k
        if k % 3 == 0:
            churn.pop((k * 31) % 4093, None)
    return rank + len(churn)


class Sampler:
    """Times the reference unit, on demand and from an interval timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (clock() at start, seconds)
        self.spent = 0.0  # seconds spent in reference units so far
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # a timer tick landed inside a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_unit()
            took = time.perf_counter() - start
        finally:
            self._busy = False
        self.samples.append((start - self.spent, took))
        self.spent += took

    def clock(self) -> float:
        """perf_counter with the time spent in reference units removed."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        self.probe()

    def timed(self, fn):
        """Run fn() with ticks on; return (result, work seconds, wall_norm).

        wall_norm is the work expressed in reference times of
        UNITS_PER_REF kernel units each.
        """
        first = len(self.samples)
        self.probe()
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = self.clock()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            end = self.clock()
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        marks = self.samples[first:]
        units = sum(
            (min(t1, end) - max(t0, start)) / ((d0 + d1) / 2)
            for (t0, d0), (t1, d1) in zip(marks, marks[1:])
        )
        return result, end - start, units / UNITS_PER_REF
