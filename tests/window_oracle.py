"""The window query answered by a plain scan of appended samples: the
reference the ledger, the scheduler tests and the acceptance checks compare
against.

Per (node, pod, metric) stream, take the maximum nonzero sample inside the
closed window [now - window, now]; then sum those maxima per node.  A query
visits every stream, so its cost grows with the history.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from epcsched.metrics import MetricSample


class OutOfOrderSampleError(ValueError):
    """Appending a sample older than the stream it extends."""


@dataclass(frozen=True)
class WindowQuery:
    """Aggregate every metric over the closed window [now - window, now]."""

    now_ms: int
    window_ms: int = 25_000

    def __post_init__(self):
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.now_ms < 0:
            raise ValueError("now_ms must be >= 0")


class WindowScan:
    """Append-only samples, kept sorted by time within each (node, pod,
    metric) stream; across streams there is no ordering requirement."""

    def __init__(self):
        # (node, pod, metric) -> (times, values)
        self._streams: dict[tuple[str, str, str], tuple[list[int], list[int]]] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def append(self, sample: MetricSample) -> None:
        key = (sample.node_id, sample.pod_id, sample.metric)
        times, values = self._streams.setdefault(key, ([], []))
        if times and sample.time_ms < times[-1]:
            raise OutOfOrderSampleError(f"sample at {sample.time_ms}ms precedes "
                                        f"stream {key} tip {times[-1]}ms")
        times.append(sample.time_ms)
        values.append(sample.value)
        self._len += 1

    def per_node_usage(self, q: WindowQuery) -> dict[str, dict[str, int]]:
        """Per metric, the sum per node of each pod's maximum nonzero sample
        in the window.  Zero-valued samples never qualify, so a node whose
        pods only reported zeros is absent from its metric's map."""
        out: dict[str, dict[str, int]] = {}
        lo, now = q.now_ms - q.window_ms, q.now_ms
        for (node_id, _pod, metric), (times, values) in self._streams.items():
            # Values are never negative, so the window's maximum is its
            # maximum nonzero sample whenever it is nonzero.
            best = max(values[bisect_left(times, lo):bisect_right(times, now)],
                       default=0)
            if best:
                per_node = out.setdefault(metric, {})
                per_node[node_id] = per_node.get(node_id, 0) + best
        return out
