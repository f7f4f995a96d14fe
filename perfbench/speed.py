"""Host speed probe, so that times from a noisy host stay comparable.

On a shared 2-vCPU VM the speed of identical work drifts by up to 1.8x
for tens of seconds to minutes at a time, longer than a run, so no choice
of repeats inside a run removes it.  A fixed integer loop, which uses
nothing from the library, is timed every PROBE_EVERY_S between ops.  An
op's time is then scaled by REF_S over the median loop time around it:
it is reported at the speed at which the loop takes REF_S.  A change to
the library cannot move the loop, so it moves the scaled times just as it
moves the raw ones; a host that is slower for a while moves neither.
On that VM this cut the spread of op times over two and a half minutes
from 0.16-0.24 to 0.06-0.08 (quartile distance over median).
"""

from __future__ import annotations

import bisect
import statistics
import time

LOOP_STEPS = 60_000
REF_S = 0.005            # the loop's time on that VM when it is fast
PROBE_EVERY_S = 0.25
WINDOW_S = 1.0


def _loop() -> int:
    s = 0
    for i in range(LOOP_STEPS):
        s = (s * 31 + i) % 1000003
    return s


class Speed:
    def __init__(self) -> None:
        self.at: list[float] = []      # probe start times
        self.took: list[float] = []    # probe durations

    def probe(self) -> None:
        t0 = time.perf_counter()
        _loop()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def probe_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median probe time within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return REF_S / statistics.median(window)
