"""Measured usage: the sliding-window rule that defines it, the ledger
that keeps it on the nodes during a replay, and the samples a run's probes
take.

The rule mirrors the monitoring stack the scheduler was built against: a
node's measured usage of a metric at `now` is the sum, over the pods on
it, of each pod's maximum nonzero sample of the metric inside the closed
window [now - window, now]; a node with no such sample measures zero.  A
replay applies the rule without samples: a pod's probed values never
change, so the window counts a pod over one interval of time, and
`UsageLedger` keeps each node's sum over those intervals in the node's
`measured_std` and `measured_epc_pages`, which admission reads.
`SeriesStore` streams the samples the probes would have written from the
same intervals.  `tests/window_oracle.py` holds the reference scan of
appended samples that the ledger is tested against.
"""

from __future__ import annotations

import csv
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush, merge
from typing import Iterator, NamedTuple

from ._csvio import open_write
from .cluster import ClusterState, NodeState, Pod

METRIC_EPC_PAGES = "epc_pages"
METRIC_STD_BYTES = "std_bytes"

SAMPLES_FIELDS = ("time_ms", "node", "pod", "metric", "value")


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


class PodInterval(NamedTuple):
    """The probe ticks that sample one pod, from `first` to `last`, and the
    values they read: `epc` pages (None for a standard pod, which reports
    none) and `std` bytes.  Ordered by (node, pod) like the probe."""

    node_id: str
    pod_id: str
    first: int
    last: int
    epc: int | None
    std: int


class UsageLedger:
    """Every node's measured usage in one run, kept on the nodes from its
    pods' intervals instead of from samples.

    Probes fire at every multiple of `probe_period_ms` while any job is live,
    after that instant's finishes and before its scheduler tick, and a pod's
    probed values never change.  A pod placed at t and finished at f is
    therefore sampled at exactly the probe ticks strictly between t and f,
    `first` = (t // P + 1) * P through `last`, the largest multiple of P
    below f; a pod with first > last is never sampled.  As the period is
    shorter than the window, the window query at `now` counts the pod
    exactly when first <= now <= last + window: a finished pod lingers on
    its node for a window after its last sample.

    `place` books a pod's interval once, at placement.  That is exact: the
    engine fixes a pod's finish when it places the pod and never moves it,
    a killed job is denied before it has a pod, and last + window falls
    after the finish, so no pod expires before it has finished.

    `advance(now)` adds a pod's values to its node at `first` and takes them
    off once `now` passes last + window, so that every node's `measured_std`
    and `measured_epc_pages` then hold the window query's answer at `now`.
    Placements happen in time order, so activations (in `pods`, behind a
    cursor) fall due in order and cost O(1) amortized per pod; expiries
    wait on a heap keyed by `last`, O(log L) per expiry for L the pods
    booked and not yet expired.  The ledger must not go back in time.
    """

    def __init__(self, cluster: ClusterState, probe_period_ms: int,
                 window_ms: int):
        self.nodes = cluster.nodes
        self.period = probe_period_ms
        self.window = window_ms
        self.pods: list[PodInterval] = []  # sampled pods in placement order
        self._active = 0                   # pods[:_active] have been added
        self._settled = 0                  # pods[:_settled] no longer count
        self._expiries: list[tuple[int, PodInterval]] = []  # heap by `last`
        self._now = 0

    def place(self, pod: Pod, finish_ms: int) -> None:
        """Book a pod just placed, which is to finish at finish_ms."""
        period, job = self.period, pod.job
        first = (pod.placed_ms // period + 1) * period
        last = (finish_ms - 1) // period * period
        if first > last:
            return
        if job.kind.uses_epc:
            # all its pages came from the granted init that created the pod
            epc, std = job.actual_epc_pages, job.requested_mem
        else:
            epc, std = None, job.actual_mem
        interval = PodInterval(pod.node_id, job.job_id, first, last, epc, std)
        self.pods.append(interval)
        heappush(self._expiries, (last, interval))

    def advance(self, now_ms: int) -> None:
        """Bring every node's measured usage to the window query's answer
        at now_ms over the ledger's own window, zero where it has none."""
        if now_ms < self._now:
            raise ValueError(f"ledger at {self._now}ms advanced to {now_ms}ms")
        self._now = now_ms
        nodes, pods, i = self.nodes, self.pods, self._active
        while i < len(pods) and pods[i].first <= now_ms:
            _count(nodes[pods[i].node_id], pods[i], 1)
            i += 1
        self._active = i
        expiries, due = self._expiries, now_ms - self.window
        while expiries and expiries[0][0] < due:
            pod = heappop(expiries)[1]
            _count(nodes[pod.node_id], pod, -1)

    def fresh(self, now_ms: int) -> dict[str, tuple[int, int]]:
        """Each node's (standard bytes, pages) in the window at now_ms, from
        a scan of the intervals that skips the leading ones that have
        already stopped counting: time only moves forward, so they never
        count again."""
        pods, window = self.pods, self.window
        i = self._settled
        while i < len(pods) and pods[i].last + window < now_ms:
            i += 1
        self._settled = i
        out = dict.fromkeys(self.nodes, (0, 0))
        for k in range(i, len(pods)):
            pod = pods[k]
            if pod.first <= now_ms <= pod.last + window:
                std, epc = out[pod.node_id]
                out[pod.node_id] = (std + pod.std, epc + (pod.epc or 0))
        return out


def _count(node: NodeState, pod: PodInterval, sign: int) -> None:
    """Add a pod's values to, or with sign -1 take them off, its node's
    measured usage."""
    node.measured_std += sign * pod.std
    if pod.epc:
        node.measured_epc_pages += sign * pod.epc


class SeriesStore:
    """A run's metric series, streamed from its pods' intervals rather than
    held: at each probe tick, every sampled pod in (node, pod) order,
    `epc_pages` before `std_bytes`."""

    def __init__(self, pods: list[PodInterval], probe_period_ms: int):
        self.pods = pods  # sorted by `first`, as placements are
        self.period = probe_period_ms
        self._len = sum(((pod.last - pod.first) // probe_period_ms + 1)
                        * (1 if pod.epc is None else 2) for pod in pods)

    def __len__(self) -> int:
        return self._len

    def _rows(self) -> Iterator[tuple[int, str, str, str, int]]:
        """Each pod's own series of (time, node, pod, metric, value) rows,
        merged: the rows compare as the probe orders them, by time, then
        (node, pod), then metric, since "epc_pages" < "std_bytes"."""
        return merge(*map(self._series, self.pods))

    def _series(self, pod: PodInterval) -> Iterator[tuple]:
        node_id, pod_id, first, last, epc, std = pod
        for now in range(first, last + 1, self.period):
            if epc is not None:
                yield (now, node_id, pod_id, METRIC_EPC_PAGES, epc)
            yield (now, node_id, pod_id, METRIC_STD_BYTES, std)

    def samples(self) -> Iterator[MetricSample]:
        """All samples in order."""
        return (MetricSample(*row) for row in self._rows())

    def _write_rows(self, fh) -> None:
        """Write `_rows()` as CSV one probe tick per string.

        Each pod's line tails, ",node,pod,metric,value", are formatted once
        by a csv writer (so ids that need quoting are quoted exactly as a
        writer of whole rows quotes them) when the pod joins the live set,
        and the tick's list of tails is rebuilt only when that set changes.
        A tick is then its time stamp in front of every tail."""
        formatted = _Lines()
        format_row = csv.writer(formatted, lineterminator="\n").writerow
        pods, period = self.pods, self.period
        live: list[tuple[str, str, int, list[str]]] = []  # (node, pod, last, tails)
        exits: list[int] = []  # heap of the live pods' `last`
        tails: list[str] = []  # of the live pods, in order
        changed = False
        i, now = 0, 0
        while i < len(pods) or live:
            if not live:
                now = pods[i].first
            while i < len(pods) and pods[i].first <= now:
                node_id, pod_id, _, last, epc, std = pods[i]
                # an empty first field: each line written is the tail
                if epc is not None:
                    format_row(("", node_id, pod_id, METRIC_EPC_PAGES, epc))
                format_row(("", node_id, pod_id, METRIC_STD_BYTES, std))
                # (node, pod) is unique, so `last` and the tails are never
                # compared
                insort(live, (node_id, pod_id, last,
                              [line[:-1] for line in formatted]))
                formatted.clear()
                heappush(exits, last)
                changed = True
                i += 1
            if changed:
                tails = [tail for pod in live for tail in pod[3]]
                changed = False
            stamp = str(now)
            fh.write(stamp + ("\n" + stamp).join(tails) + "\n")
            now += period
            if exits[0] < now:
                while exits and exits[0] < now:
                    heappop(exits)
                live = [pod for pod in live if pod[2] >= now]
                changed = True

    def write_csv(self, dest) -> None:
        """The samples file: a header, then `_rows()` as CSV."""
        with open_write(dest) as fh:
            fh.write(",".join(SAMPLES_FIELDS) + "\n")
            self._write_rows(fh)


class _Lines(list):
    """A list a csv writer writes to: each row it writes is one item."""

    write = list.append
