"""Placement policies over measured usage and open reservations.

Admission never trusts declarations alone: a node's occupancy is the maximum
of what the probes measured and what reservations say, so a node looks full
both while measurements lag behind fresh placements and while real usage
exceeds what jobs reserved.  Protected memory is never over-committed.
"""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Callable, Iterable, Mapping

from .cluster import ClusterState, NodeState
from .metrics import METRIC_EPC_PAGES, METRIC_STD_BYTES, SeriesStore, WindowQuery
from .trace import JobSpec


@dataclass(frozen=True)
class Placement:
    job_id: str
    node_id: str
    decided_at_ms: int


class PendingQueue:
    """Jobs waiting for placement, in first-come-first-served order
    (submit time, then job id), with the running sum of the protected pages
    they declare.  Placement or a kill takes a job out; there is no other
    way out."""

    def __init__(self, jobs: Iterable[JobSpec] = ()):
        self._jobs: list[JobSpec] = []
        self.epc_pages = 0  # standard jobs declare none
        for job in jobs:
            self.push(job)

    @staticmethod
    def _key(job: JobSpec):
        return (job.submit_ms, job.job_id)

    def push(self, job: JobSpec) -> None:
        insort(self._jobs, job, key=self._key)
        self.epc_pages += job.declared_epc_pages

    def take(self, placed: list[JobSpec]) -> None:
        """Remove the queued jobs one walk placed, in one pass."""
        if not placed:
            return
        gone = {job.job_id for job in placed}
        self._jobs = [job for job in self._jobs if job.job_id not in gone]
        self.epc_pages -= sum(job.declared_epc_pages for job in placed)

    def drain(self) -> list[JobSpec]:
        """Empty the queue; its jobs in queue order."""
        jobs, self._jobs, self.epc_pages = self._jobs, [], 0
        return jobs

    def jobs(self) -> list[JobSpec]:
        """Snapshot in queue order."""
        return list(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs)


class _Headroom(dict):
    """node id -> one resource's headroom, computed on first read."""

    __slots__ = ("_compute",)

    def __init__(self, compute: Callable[[str], int]):
        super().__init__()
        self._compute = compute

    def __missing__(self, node_id: str) -> int:
        value = self[node_id] = self._compute(node_id)
        return value


class Occupancy:
    """One tick's view of how much more each node can take: per node and
    resource, the headroom capacity - max(measured, reserved).

    It is built from one window query per tick.  A node's entries are
    computed when a policy first reads them, so a walk that stops at the
    first fitting node never looks at the rest.  A reservation made during
    the walk goes through `reserve`, which drops that node's entries; the
    next read recomputes them from the new reservations, so later jobs of
    the same walk see it.  A node without protected memory has page
    headroom -1, below any request."""

    __slots__ = ("cluster", "std_free", "epc_free")

    def __init__(self, cluster: ClusterState,
                 measured: Mapping[str, Mapping[str, int]]):
        seen_std = measured.get(METRIC_STD_BYTES, {})
        seen_epc = measured.get(METRIC_EPC_PAGES, {})
        nodes = cluster.nodes

        def std_free(node_id: str) -> int:
            node = nodes[node_id]
            return node.spec.std_capacity - max(seen_std.get(node_id, 0),
                                                node.reserved_std)

        def epc_free(node_id: str) -> int:
            node = nodes[node_id]
            epc = node.spec.epc
            if epc is None:
                return -1
            return epc.usable_pages - max(seen_epc.get(node_id, 0),
                                          node.reserved_epc_pages)

        self.cluster = cluster
        self.std_free = _Headroom(std_free)
        self.epc_free = _Headroom(epc_free)

    def reserve(self, node_id: str, std_bytes: int, epc_pages: int) -> None:
        """Reserve on the node and drop its headroom entries."""
        self.cluster.nodes[node_id].reserve(std_bytes, epc_pages)
        self.std_free.pop(node_id, None)
        self.epc_free.pop(node_id, None)


def feasible(job: JobSpec, node_id: str, view: Occupancy) -> bool:
    """Whether the node can take the job right now.

    Enclave jobs need an enclave-capable node with at least their declared
    pages of headroom; every job additionally needs standard-memory headroom
    for its advertised request (an enclave job's untrusted part lives there
    too).
    """
    if job.kind.uses_epc and view.epc_free[node_id] < job.declared_epc_pages:
        return False
    return view.std_free[node_id] >= job.requested_mem


def binpack_select(job: JobSpec, view: Occupancy) -> str | None:
    """First feasible node in a fixed order, so load piles up on the lowest
    node ids.  Standard jobs try enclave-capable nodes last, keeping the
    scarce protected-memory hosts free for jobs that need them."""
    cluster = view.cluster
    if job.kind.uses_epc:
        candidates = cluster.sgx_nodes
    else:
        candidates = chain(cluster.plain_nodes, cluster.sgx_nodes)
    for node in candidates:
        if feasible(job, node.node_id, view):
            return node.node_id
    return None


def _epc_fraction(node: NodeState, extra_pages: int) -> float:
    return (node.reserved_epc_pages + extra_pages) / node.spec.epc.usable_pages


def _std_fraction(node: NodeState, extra_bytes: int) -> float:
    return (node.reserved_std + extra_bytes) / node.spec.std_capacity


# A ratio of at least this many bits has an integer square root of at least
# two bits more than a float's significand, enough to round it to odd.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den) correctly rounded to a float, the value
    `statistics.pstdev` returns for an exact variance of num / den.

    The ratio is scaled by 4**-q to _SQRT_BITS bits or more and its integer
    root rounded to odd (low bit set when inexact); the float conversion is
    then the only rounding, since scaling back by 2**q is exact."""
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def _pick_balanced(job: JobSpec, candidates: list[NodeState],
                   view: Occupancy, load: Callable[[NodeState, int], float],
                   extra: int) -> str | None:
    """Among feasible candidates (given in node id order), the one whose
    hypothetical placement leaves the candidate set's load fractions with
    the smallest population stddev; ties go to the lowest node id.

    A score is the float `statistics.pstdev` gives for the set, so two
    different variances that round to one stddev still tie.  Every float
    load is a dyadic rational: lifted to integers N over one power-of-two
    denominator D, the variance with one term changed is
    (n*Q - S*S) / (n*D)**2 from the running sums S = sum(N), Q = sum(N*N),
    so each target costs O(1) and the decision O(nodes)."""
    base = [load(n, 0).as_integer_ratio() for n in candidates]
    targets = [(i, load(t, extra).as_integer_ratio())
               for i, t in enumerate(candidates)
               if feasible(job, t.node_id, view)]
    if not targets:
        return None
    bits = max(d.bit_length() for _, d in base + [r for _, r in targets])
    lifted = [num << (bits - den.bit_length()) for num, den in base]
    total = sum(lifted)
    squares = sum(v * v for v in lifted)
    count = len(candidates)
    scale = (count << (bits - 1)) ** 2
    best: int | None = None
    best_score, best_var = 0.0, 0
    for i, (num, tden) in targets:
        old = lifted[i]
        new = num << (bits - tden.bit_length())
        s = total - old + new
        var = count * (squares - old * old + new * new) - s * s
        if best is not None and var >= best_var:
            continue  # a correctly rounded sqrt never decreases
        score = _sqrt_of_ratio(var, scale)
        if best is None or score < best_score:
            best, best_score, best_var = i, score, var
    return candidates[best].node_id


def spread_select(job: JobSpec, view: Occupancy) -> str | None:
    """Evens out the reserved fraction of the resource the job cares about.

    Enclave jobs balance page reservations across enclave-capable nodes.
    Standard jobs balance standard memory across the plain nodes and fall
    back to enclave-capable ones only when no plain node is feasible."""
    cluster = view.cluster
    if job.kind.uses_epc:
        return _pick_balanced(job, cluster.sgx_nodes, view, _epc_fraction,
                              job.declared_epc_pages)
    chosen = _pick_balanced(job, cluster.plain_nodes, view, _std_fraction,
                            job.requested_mem)
    if chosen is not None:
        return chosen
    return _pick_balanced(job, cluster.sgx_nodes, view, _std_fraction,
                          job.requested_mem)


# The policy contract, which every entry must keep: select(job, view)
# returns None only if no node of the job's candidate set is `feasible`, and
# that set depends only on the job's kind (the enclave-capable nodes for
# enclave jobs, all nodes for standard jobs).  `schedule_tick` relies on it
# to skip jobs that a failure earlier in the same tick already rules out.
POLICIES: dict[str, Callable[..., str | None]] = {
    "binpack": binpack_select,
    "spread": spread_select,
}


def snapshot_usage(cluster: ClusterState, store: SeriesStore, now_ms: int,
                   window_ms: int = 25_000) -> Occupancy:
    """The tick's occupancy view, from one window query for every metric."""
    return Occupancy(cluster,
                     store.per_node_usage(WindowQuery(now_ms, window_ms)))


def schedule_tick(queue: PendingQueue, cluster: ClusterState,
                  store: SeriesStore, now_ms: int, policy: str = "binpack",
                  window_ms: int = 25_000) -> list[Placement]:
    """Walk the queue in order once, placing every job that fits somewhere.

    Measured usage is snapshotted once per tick (not at all for an empty
    queue); reservations made for jobs placed earlier in the same walk are
    visible to later ones, so one tick cannot over-commit a node.  Jobs with
    no feasible node simply stay queued without blocking the jobs behind
    them.  Placed jobs leave the queue together after the walk.

    Within a walk the snapshot is fixed and reservations only grow, and
    `feasible` is monotone in a job's requested memory and declared pages.
    By the policy contract a job therefore cannot be placed if an earlier
    job of its class (standard or enclave) that asked for no more of either
    failed in the same walk; such a job is skipped without asking the
    policy.  Standard failures keep their smallest request, enclave
    failures their Pareto-minimal (memory, pages) pairs.
    """
    try:
        select = POLICIES[policy]
    except KeyError:
        raise ValueError(f"unknown policy {policy!r}") from None
    if not queue:
        return []
    view = snapshot_usage(cluster, store, now_ms, window_ms)
    placements: list[Placement] = []
    placed: list[JobSpec] = []
    std_failed: int | None = None
    enclave_failed: list[tuple[int, int]] = []
    for job in queue:
        mem, pages = job.requested_mem, job.declared_epc_pages
        enclave = job.kind.uses_epc
        if enclave:
            dominated = False
            for m, p in enclave_failed:
                if m <= mem and p <= pages:
                    dominated = True
                    break
            if dominated:
                continue
        elif std_failed is not None and std_failed <= mem:
            continue
        node_id = select(job, view)
        if node_id is None:
            if enclave:
                enclave_failed = [(m, p) for m, p in enclave_failed
                                  if m < mem or p < pages]
                enclave_failed.append((mem, pages))
            else:
                std_failed = mem
            continue
        view.reserve(node_id, mem, pages)
        placed.append(job)
        placements.append(Placement(job.job_id, node_id, now_ms))
    queue.take(placed)
    return placements
