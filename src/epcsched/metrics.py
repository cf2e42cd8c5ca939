"""Time-series store for probed usage samples and the sliding-window query
the scheduler reads.

The query semantics mirror the monitoring stack the scheduler was built
against: per (pod, node) group and metric, take the maximum nonzero sample
inside the closed window [now - window, now]; then sum those maxima per node.
One query answers every metric at once.  Metrics and nodes with no
qualifying sample are absent from the result, which the caller must treat as
zero usage.
"""

from __future__ import annotations

import csv
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import Iterable, Iterator

from .cluster import ClusterState
from .trace import _open_write

METRIC_EPC_PAGES = "epc_pages"
METRIC_STD_BYTES = "std_bytes"

SAMPLES_FIELDS = ("time_ms", "node", "pod", "metric", "value")


class OutOfOrderSampleError(ValueError):
    """Appending a sample older than the stream it extends."""


@dataclass(frozen=True)
class MetricSample:
    time_ms: int
    node_id: str
    pod_id: str
    metric: str
    value: int

    def __post_init__(self):
        if self.time_ms < 0:
            raise ValueError("sample time must be >= 0")
        if self.value < 0:
            raise ValueError("sample value must be >= 0")


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


_Key = tuple[str, str, str]  # (node, pod, metric)


class _Stream:
    """Samples of one (node, pod, metric) series, times kept sorted.

    `since` is the time of the last sample whose value differs from the
    tip's, or -1 when no sample does: every sample after it holds the tip's
    value."""

    __slots__ = ("key", "times", "values", "since")

    def __init__(self, key: _Key):
        self.key = key
        self.times: list[int] = []
        self.values: list[int] = []
        self.since = -1


class SeriesStore:
    """Append-only sample store, queryable per window.

    Streams are keyed by (node, pod, metric).  Within a stream, time must not
    go backwards; across streams there is no ordering requirement.  Streams
    are also filed under their tip, the time of their last sample: a stream
    whose tip is older than the window's start has no sample inside it, so a
    query bisects the sorted tips and visits only the streams that can
    contribute.  A stream whose value has not changed inside the window
    answers with its tip's value; any other is bisected.  The cost is
    bounded by the window, not the history length.

    Each sample is stored once, in its stream; the log keeps append order as
    one stream reference per sample, replayed with a cursor per stream.
    """

    def __init__(self):
        self._streams: dict[_Key, _Stream] = {}
        self._by_tip: dict[int, dict[_Key, _Stream]] = {}
        self._tips: list[int] = []  # the keys of _by_tip, sorted
        self._log: list[_Stream] = []

    def __len__(self) -> int:
        return len(self._log)

    def append(self, sample: MetricSample) -> None:
        self._append_rows(sample.time_ms, ((sample.node_id, sample.pod_id,
                                            sample.metric, sample.value),))

    def _append_rows(self, time_ms: int,
                     rows: Iterable[tuple[str, str, str, int]]) -> None:
        """Append (node, pod, metric, value) samples that share one time,
        without a `MetricSample` each: the path under `append`, which
        validates, and under the probe, whose times and values are never
        negative."""
        streams, log = self._streams, self._log
        bucket = self._by_tip.get(time_ms)
        for node_id, pod_id, metric, value in rows:
            key = (node_id, pod_id, metric)
            stream = streams.get(key)
            if stream is None:
                stream = streams[key] = _Stream(key)
            else:
                tip = stream.times[-1]
                if time_ms < tip:
                    raise OutOfOrderSampleError(
                        f"sample at {time_ms}ms precedes stream {key} tip {tip}ms")
                if value != stream.values[-1]:
                    stream.since = tip
                if time_ms != tip:
                    self._unfile(key, tip)
            if bucket is None:
                bucket = self._by_tip[time_ms] = {}
                insort(self._tips, time_ms)
            bucket[key] = stream
            stream.times.append(time_ms)
            stream.values.append(value)
            log.append(stream)

    def _unfile(self, key: _Key, tip: int) -> None:
        bucket = self._by_tip[tip]
        del bucket[key]
        if not bucket:
            del self._by_tip[tip]
            del self._tips[bisect_left(self._tips, tip)]

    def per_node_usage(self, q: WindowQuery) -> dict[str, dict[str, int]]:
        """Per metric, the sum per node of each pod's maximum nonzero sample
        in the window, for every metric in one pass over the window's
        streams.

        Zero-valued samples never qualify, so an idle pod cannot drag a
        node's aggregate down and a node whose pods only reported zeros is
        simply absent from its metric's map.
        """
        out: dict[str, dict[str, int]] = {}
        lo_bound, now = q.now_ms - q.window_ms, q.now_ms
        tips, by_tip = self._tips, self._by_tip
        for i in range(bisect_left(tips, lo_bound), len(tips)):
            tip = tips[i]
            inside = tip <= now
            for (node_id, _pod, metric), stream in by_tip[tip].items():
                if inside and stream.since < lo_bound:
                    # The tip is in the window, and every sample of the
                    # window holds the tip's value.
                    best = stream.values[-1]
                else:
                    times = stream.times
                    hi = len(times) if inside else bisect_right(times, now)
                    # Values are never negative, so the window's maximum is
                    # its maximum nonzero sample whenever it is nonzero.
                    best = max(stream.values[bisect_left(times, lo_bound):hi],
                               default=0)
                if best:
                    per_node = out.get(metric)
                    if per_node is None:
                        per_node = out[metric] = {}
                    per_node[node_id] = per_node.get(node_id, 0) + best
        return out

    def _rows(self) -> Iterator[tuple[int, str, str, str, int]]:
        """(time, node, pod, metric, value) of every sample in append order."""
        cursors: dict[_Stream, int] = {}
        for stream in self._log:
            i = cursors.get(stream, 0)
            cursors[stream] = i + 1
            yield (stream.times[i], *stream.key, stream.values[i])

    def samples(self) -> Iterator[MetricSample]:
        """All samples in append order."""
        return (MetricSample(*row) for row in self._rows())

    def write_csv(self, dest) -> None:
        with _open_write(dest) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SAMPLES_FIELDS)
            writer.writerows(self._rows())


def probe_tick(cluster: ClusterState, store: SeriesStore, now_ms: int) -> None:
    """Record one sample per running pod, as the per-node usage probe would.

    Enclave-backed pods report their actual pages, all of which the granted
    initialization that created the pod handed out, plus their advertised
    standard-memory request for the untrusted part; standard pods report the memory they actually touch.  Pods count
    from placement, so a pod still in enclave construction is already
    visible here.
    """
    rows = []
    for pod in sorted(cluster.pods.values(),
                      key=lambda p: (p.node_id, p.job.job_id)):
        job, node_id = pod.job, pod.node_id
        if job.kind.uses_epc:
            rows.append((node_id, job.job_id, METRIC_EPC_PAGES,
                         job.actual_epc_pages))
            std_usage = job.requested_mem
        else:
            std_usage = job.actual_mem
        rows.append((node_id, job.job_id, METRIC_STD_BYTES, std_usage))
    store._append_rows(now_ms, rows)
