"""Span recording and the arithmetic the traced pass reports.

A span is one call into a layer: its name, start and end on the host
monotonic clock in nanoseconds, and the span that was open when it started
(its parent, or -1 at the top).  Spans live in memory for the whole traced
pass and are written out once the benchmark ends.  A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import gzip
import time
from math import ceil


class SpanRecorder:
    """Spans of one traced pass, indexed by id in the order they opened."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(-1)
        self._open.append(sid)
        self.starts.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        if self._open.pop() != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def durations(self) -> list[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        return self_times(self.starts, self.ends, self.parents)

    def write_csv_gz(self, path, pass_index: int, append: bool) -> None:
        """One row per span: pass, id, parent, name, start_ns, end_ns, self_ns."""
        own = self.self_times()
        with gzip.open(path, "at" if append else "wt", compresslevel=1,
                       encoding="utf-8") as fh:
            if not append:
                fh.write("pass,id,parent,name,start_ns,end_ns,self_ns\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{pass_index},{sid},{self.parents[sid]},{name},"
                         f"{self.starts[sid]},{self.ends[sid]},{own[sid]}\n")


def covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Length of the part of `interval` that the union of `children` covers.

    Children are clipped to the interval first, so a child that outlives its
    parent (which a single-threaded caller never produces) cannot push the
    parent's self time below zero, and overlapping children count once.
    """
    lo, hi = interval
    total = 0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts: list[int], ends: list[int],
               parents: list[int]) -> list[int]:
    """Each span's duration minus its direct children's coverage."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for sid, parent in enumerate(parents):
        if parent >= 0:
            kids.setdefault(parent, []).append((starts[sid], ends[sid]))
    return [ends[sid] - starts[sid]
            - covered((starts[sid], ends[sid]), kids.get(sid, []))
            for sid in range(len(starts))]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it.  An empty input gives 0."""
    if not 0 < p <= 100:
        raise ValueError("p must lie in (0, 100]")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def ratio(part: float, base: float) -> float:
    """part / base, or 0 when there is no base (nothing was attempted)."""
    return part / base if base else 0.0


def overhead_frac(traced_s: float, untraced_s: float) -> float:
    """Extra host time tracing costs, as a share of the untraced time."""
    return ratio(traced_s - untraced_s, untraced_s)
