"""Correcting host time for the speed of a shared host.

On a host whose cores are shared with other tenants, the same pass of the
same code can take 1.8 times longer at one moment than at another, in
phases that last from seconds to minutes.  Raw host time then moves more
from run to run than any change worth measuring.

While a timed region runs, `SpeedProbe` interrupts it every `INTERVAL_S`
with a fixed pure-Python loop that touches nothing of the package, and
times that loop.  `corrected` removes the loop's own time from the region
and rescales the rest by how fast the loop ran during the region compared
with `REFERENCE_S`: the region's host seconds at the reference host speed.
A slower host phase slows the loop too and cancels out; a slower program
does not slow the loop and shows in full.
"""

from __future__ import annotations

import signal
import time

# Roughly the time of one probe() on an uncontended 2.0 GHz Intel Xeon core;
# it only sets the scale of corrected seconds.
REFERENCE_S = 0.00025
INTERVAL_S = 0.01


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _step(item, k):
    return item.a + k if item.b else k


def probe() -> int:
    """A fixed mix of what the simulator spends its time on: small objects,
    calls, tuple-keyed dict lookups, list appends and a keyed sort."""
    table: dict = {}
    acc = 0
    rows = []
    for i in range(300):
        item = _Item(i, i & 1)
        table[(i & 63, "k")] = acc
        acc += _step(item, table.get(((i * 7) & 63, "k"), 0)) & 1023
        rows.append((i, acc))
    rows.sort(key=lambda row: -row[1])
    return acc


class SpeedProbe:
    """Context manager sampling the probe's time during a region.

    One sample is taken on entry, before the caller starts its clock, so
    even a region shorter than the interval has one.  Signal handlers run in
    the main thread only; use it there.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # probe time inside the region
        self._previous = None

    def _sample(self) -> float:
        start = time.perf_counter()
        probe()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _on_alarm(self, signum, frame):
        self.spent += self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed_factor(self) -> float:
        """Reference probe time over the harmonic mean of the sampled ones:
        below 1 when the host ran slower than the reference."""
        return REFERENCE_S * sum(1 / s for s in self.samples) / len(self.samples)

    def corrected(self, raw_s: float) -> float:
        """Host seconds of a region timed as `raw_s`, without the probe's own
        time, at the reference host speed."""
        return (raw_s - self.spent) * self.speed_factor()
