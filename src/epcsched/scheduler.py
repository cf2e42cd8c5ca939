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


@dataclass(frozen=True)
class NodeUsage:
    """Measured usage of one node inside the query window."""

    epc_pages: int = 0
    std_bytes: int = 0


_NO_USAGE = NodeUsage()


class PendingQueue:
    """Jobs waiting for placement, in first-come-first-served order
    (submit time, then job id).  Placement or a kill removes a job; there is
    no other way out."""

    def __init__(self, jobs: Iterable[JobSpec] = ()):
        self._jobs: list[JobSpec] = []
        for job in jobs:
            self.push(job)

    @staticmethod
    def _key(job: JobSpec):
        return (job.submit_ms, job.job_id)

    def push(self, job: JobSpec) -> None:
        insort(self._jobs, job, key=self._key)

    def remove(self, job_id: str) -> JobSpec:
        for i, job in enumerate(self._jobs):
            if job.job_id == job_id:
                return self._jobs.pop(i)
        raise KeyError(job_id)

    def jobs(self) -> list[JobSpec]:
        """Snapshot in queue order."""
        return list(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs)


def feasible(job: JobSpec, node: NodeState,
             usage: Mapping[str, NodeUsage]) -> bool:
    """Whether the node can take the job right now.

    Enclave jobs need an enclave-capable node with enough usable pages beyond
    max(measured, reserved) occupancy; every job additionally needs standard
    memory for its advertised request (an enclave job's untrusted part lives
    there too).
    """
    seen = usage.get(node.node_id, _NO_USAGE)
    spec = node.spec
    if job.kind.uses_epc:
        if spec.epc is None:
            return False
        occupied = max(seen.epc_pages, node.reserved_epc_pages)
        if occupied + job.declared_epc_pages > spec.epc.usable_pages:
            return False
    occupied_std = max(seen.std_bytes, node.reserved_std)
    return occupied_std + job.requested_mem <= spec.std_capacity


def binpack_select(job: JobSpec, nodes: Mapping[str, NodeState],
                   usage: Mapping[str, NodeUsage]) -> str | None:
    """First feasible node in a fixed order, so load piles up on the lowest
    node ids.  Standard jobs try enclave-capable nodes last, keeping the
    scarce protected-memory hosts free for jobs that need them."""
    if job.kind.uses_epc:
        candidates = sorted((n for n in nodes.values() if n.is_sgx),
                            key=lambda n: n.node_id)
    else:
        candidates = sorted(nodes.values(), key=lambda n: (n.is_sgx, n.node_id))
    for node in candidates:
        if feasible(job, node, usage):
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
                   usage: Mapping[str, NodeUsage],
                   load: Callable[[NodeState, int], float],
                   extra: int) -> str | None:
    """Among feasible candidates, the one whose hypothetical placement leaves
    the candidate set's load fractions with the smallest population stddev;
    ties go to the lowest node id.

    A score is the float `statistics.pstdev` gives for the set, so two
    different variances that round to one stddev still tie.  Every float
    load is a dyadic rational: lifted to integers N over one power-of-two
    denominator D, the variance with one term changed is
    (n*Q - S*S) / (n*D)**2 from the running sums S = sum(N), Q = sum(N*N),
    so each target costs O(1) and the decision O(nodes)."""
    base = [load(n, 0).as_integer_ratio() for n in candidates]
    targets = [(t, load(t, extra).as_integer_ratio())
               for t in sorted(candidates, key=lambda n: n.node_id)
               if feasible(job, t, usage)]
    if not targets:
        return None
    bits = max(d.bit_length() for _, d in base + [r for _, r in targets])
    lifted = {n.node_id: num << (bits - den.bit_length())
              for n, (num, den) in zip(candidates, base)}
    total = sum(lifted.values())
    squares = sum(v * v for v in lifted.values())
    count = len(candidates)
    scale = (count << (bits - 1)) ** 2
    best_id: str | None = None
    best_score, best_var = 0.0, 0
    for target, (num, tden) in targets:
        old = lifted[target.node_id]
        new = num << (bits - tden.bit_length())
        s = total - old + new
        var = count * (squares - old * old + new * new) - s * s
        if best_id is not None and var >= best_var:
            continue  # a correctly rounded sqrt never decreases
        score = _sqrt_of_ratio(var, scale)
        if best_id is None or score < best_score:
            best_id, best_score, best_var = target.node_id, score, var
    return best_id


def spread_select(job: JobSpec, nodes: Mapping[str, NodeState],
                  usage: Mapping[str, NodeUsage]) -> str | None:
    """Evens out the reserved fraction of the resource the job cares about.

    Enclave jobs balance page reservations across enclave-capable nodes.
    Standard jobs balance standard memory across the plain nodes and fall
    back to enclave-capable ones only when no plain node is feasible."""
    if job.kind.uses_epc:
        sgx = [n for n in nodes.values() if n.is_sgx]
        return _pick_balanced(job, sgx, usage, _epc_fraction,
                              job.declared_epc_pages)
    plain = [n for n in nodes.values() if not n.is_sgx]
    chosen = _pick_balanced(job, plain, usage, _std_fraction, job.requested_mem)
    if chosen is not None:
        return chosen
    sgx = [n for n in nodes.values() if n.is_sgx]
    return _pick_balanced(job, sgx, usage, _std_fraction, job.requested_mem)


# The policy contract, which every entry must keep: select(job, nodes, usage)
# returns None only if no node of the job's candidate set is `feasible`, and
# that set depends only on the job's kind (the enclave-capable nodes for
# enclave jobs, all nodes for standard jobs).  `schedule_tick` relies on it
# to skip jobs that a failure earlier in the same tick already rules out.
POLICIES: dict[str, Callable[..., str | None]] = {
    "binpack": binpack_select,
    "spread": spread_select,
}


def snapshot_usage(store: SeriesStore, now_ms: int,
                   window_ms: int = 25_000) -> dict[str, NodeUsage]:
    """One windowed usage query per metric, merged per node."""
    epc = store.per_node_usage(WindowQuery(METRIC_EPC_PAGES, now_ms, window_ms))
    std = store.per_node_usage(WindowQuery(METRIC_STD_BYTES, now_ms, window_ms))
    return {node_id: NodeUsage(epc.get(node_id, 0), std.get(node_id, 0))
            for node_id in epc.keys() | std.keys()}


def schedule_tick(queue: PendingQueue, cluster: ClusterState,
                  store: SeriesStore, now_ms: int, policy: str = "binpack",
                  window_ms: int = 25_000) -> list[Placement]:
    """Walk the queue in order once, placing every job that fits somewhere.

    Measured usage is snapshotted once per tick (not at all for an empty
    queue); reservations made for jobs placed earlier in the same walk are
    visible to later ones, so one tick cannot over-commit a node.  Jobs with
    no feasible node simply stay queued without blocking the jobs behind
    them.

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
    usage = snapshot_usage(store, now_ms, window_ms)
    placements: list[Placement] = []
    std_failed: int | None = None
    enclave_failed: list[tuple[int, int]] = []
    for job in queue.jobs():
        mem, pages = job.requested_mem, job.declared_epc_pages
        enclave = job.kind.uses_epc
        if enclave:
            if any(m <= mem and p <= pages for m, p in enclave_failed):
                continue
        elif std_failed is not None and std_failed <= mem:
            continue
        node_id = select(job, cluster.nodes, usage)
        if node_id is None:
            if enclave:
                enclave_failed = [(m, p) for m, p in enclave_failed
                                  if m < mem or p < pages]
                enclave_failed.append((mem, pages))
            else:
                std_failed = mem
            continue
        cluster.nodes[node_id].reserve(mem, pages)
        queue.remove(job.job_id)
        placements.append(Placement(job.job_id, node_id, now_ms))
    return placements
