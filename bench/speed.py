"""The machine's speed, measured next to the work, and times scaled to it.

On a shared machine the speed one CPU gives a process changes by up to 2x
within seconds, as other tenants come and go, and code running on that CPU
slows by nearly the same factor whatever it is.  So the benchmark times a
fixed calibration kernel on the CPU it runs on, at marks between the calls it
measures, and reports every time as it reads at the nominal speed, the speed
at which the kernel takes ``NOMINAL_MS``.  Each stretch of time between two
marks is scaled by ``NOMINAL_MS`` ÷ the mean of the kernel times measured at
its two ends; time spent calibrating is left out.

On a 2-vCPU Intel Xeon VM the kernel takes about 1 ms when the machine is
calm, so scaled times read about as the program's calm times there.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_MS = 1.0
#: rounds of the kernel's two loops
ARRAY_ROUNDS = 250
LIST_ROUNDS = 700
#: kernel runs per mark; the mark keeps their median
RUNS = 3
#: between calls, a mark is taken only once this long has passed since the
#: last one
MARK_EVERY_S = 0.25


def kernel() -> float:
    """Small numpy arrays read and written one element at a time, then
    tuples, strings and list rebuilds: the kinds of work the program does,
    calling none of it."""
    acc = 0.0
    for i in range(ARRAY_ROUNDS):
        row = np.zeros(13)
        row[i % 13] = 1.0
        acc += float(row.argmax()) + float(row.max())
    items: list[tuple[int, str]] = []
    for i in range(LIST_ROUNDS):
        items.append((i, str(i)))
        if len(items) > 50:
            items = [item for item in items if item[0] % 3][-25:]
    return acc + len(items)


class SpeedMeter:
    """Marks of the kernel's time along a run, and times scaled by them."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self.kernel_ms: list[float] = []

    def mark(self) -> None:
        start = time.perf_counter()
        runs = []
        for _ in range(RUNS):
            t0 = time.perf_counter()
            kernel()
            runs.append((time.perf_counter() - t0) * 1000.0)
        self._starts.append(start)
        self._ends.append(time.perf_counter())
        self.kernel_ms.append(statistics.median(runs))

    def mark_if_due(self) -> None:
        if not self._ends or \
                time.perf_counter() - self._ends[-1] >= MARK_EVERY_S:
            self.mark()

    def scaled_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` at the nominal speed.

        Only the stretches between marks count, each scaled by the speed
        measured at its two ends; ``[start, end]`` must lie between the
        first mark and the last."""
        i = max(bisect.bisect_right(self._ends, start) - 1, 0)
        total = 0.0
        while i + 1 < len(self._ends) and self._ends[i] < end:
            lo = max(start, self._ends[i])
            hi = min(end, self._starts[i + 1])
            if hi > lo:
                at_ends = self.kernel_ms[i] + self.kernel_ms[i + 1]
                total += (hi - lo) * 2.0 * NOMINAL_MS / at_ends
            i += 1
        return total

    def scaled_ms(self, interval: tuple[float, float]) -> float:
        return self.scaled_s(*interval) * 1000.0

    def factor(self, start: float, end: float) -> float:
        """Nominal ÷ measured time over ``[start, end]``."""
        return self.scaled_s(start, end) / (end - start)
