"""Wall time scaled to a reference machine speed.

On a shared host the speed of one CPU drifts by up to ~1.8x within a
minute, as other tenants come and go: a fixed loop of pure-Python work
takes 1.2 ms in quiet periods and 2.3 ms in busy ones, for seconds at a
time.  Raw wall times then spread more between runs than any
regression worth catching.

The benchmark therefore runs a short, fixed calibration loop between
operations and scales each measured interval by the local speed: the
interval times :data:`REFERENCE_S` over the median calibration time in
a window around it.  A scaled time is the time the interval would have
taken with the calibration loop at its reference speed; on a quiet host
it equals the raw wall time.  The calibration loop is pure interpreter
work (dict stores, tuple and str allocation), like the code it
normalizes.  Raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

CALIBRATION_ITERATIONS = 6000
#: Duration of one calibration loop at the reference speed (a quiet
#: period of the 2-CPU host the benchmark was written on).
REFERENCE_S = 1.2e-3
#: Calibration samples this close to an interval set its speed.
WINDOW_S = 0.5


def _calibration_loop() -> int:
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[(i * 7919) % 1009] = (i, str(i & 255))
    return len(table)


class SpeedClock:
    """Calibration samples of one run, and intervals scaled by them."""

    def __init__(self):
        self._mids = []
        self._durations = []

    def calibrate(self) -> None:
        """Time one calibration loop (call between measured operations)."""
        start = time.perf_counter()
        _calibration_loop()
        end = time.perf_counter()
        self._mids.append((start + end) / 2)
        self._durations.append(end - start)

    def speed(self, start: float, end: float) -> float:
        """Reference over local calibration time around ``[start, end]``.

        Uses the samples within :data:`WINDOW_S` of the interval plus
        the nearest one on each side, so there is always one.
        """
        lo = bisect.bisect_left(self._mids, start - WINDOW_S)
        hi = bisect.bisect_right(self._mids, end + WINDOW_S)
        window = self._durations[max(lo - 1, 0):hi + 1]
        return REFERENCE_S / statistics.median(window)

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return (end - start) * self.speed(start, end)
