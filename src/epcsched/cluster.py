"""Cluster description: node capacities, protected-memory geometry, and the
reservation accounting the scheduler admits against.

Protected memory (the enclave page cache) is tracked in whole pages and is
never over-committed: only the usable slice of the hardware region can ever
be handed out, and reservations above it are a hard fault, not a soft error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from ._units import DEFAULT_EPC_USABLE, MIB, PAGE_SIZE
from .trace import JobSpec

DEFAULT_EPC_TOTAL = 128 * MIB


class CapacityError(RuntimeError):
    """A reservation or release that violates node accounting.  Reaching this
    means the caller (the scheduler) is broken, so it is never caught inside
    the package."""


@dataclass(frozen=True)
class EpcModel:
    """Protected-memory geometry of one node: the hardware region and the
    usable slice of it that enclaves can be handed."""

    total_bytes: int = DEFAULT_EPC_TOTAL
    usable_bytes: int = DEFAULT_EPC_USABLE

    def __post_init__(self):
        if self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        if not 0 < self.usable_bytes <= self.total_bytes:
            raise ValueError("usable_bytes must lie in (0, total_bytes]")
        if self.usable_bytes % PAGE_SIZE:
            raise ValueError("usable_bytes must be a whole number of pages")

    @cached_property
    def usable_pages(self) -> int:
        # computed once per model: admission reads it for every candidate
        return self.usable_bytes // PAGE_SIZE

    @property
    def usable_mib(self) -> float:
        return self.usable_bytes / MIB


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one node.  epc is None on nodes without
    protected-memory hardware."""

    node_id: str
    std_capacity: int
    epc: EpcModel | None = None

    def __post_init__(self):
        if not self.node_id:
            raise ValueError("empty node_id")
        if self.std_capacity <= 0:
            raise ValueError(f"std_capacity must be positive on {self.node_id}")

    @property
    def is_sgx(self) -> bool:
        return self.epc is not None


@dataclass
class NodeState:
    """Mutable per-node counters.  The reservations are a cache of the pods
    placed on the node; the measured usage is a cache of the pod intervals
    of the run's `UsageLedger` that count in the window at the ledger's last
    advance, which a replay makes at every scheduler tick.

    `reserve` and `release` add the node's id to `changed`, its cluster's
    change feed once the node belongs to a `ClusterState`."""

    spec: NodeSpec
    reserved_std: int = 0
    reserved_epc_pages: int = 0
    measured_std: int = 0
    measured_epc_pages: int = 0
    changed: set[str] = field(default_factory=set, repr=False, compare=False)

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def is_sgx(self) -> bool:
        return self.spec.is_sgx

    def reserve(self, std_bytes: int, epc_pages: int) -> None:
        if std_bytes < 0 or epc_pages < 0:
            raise CapacityError("reservation amounts must be >= 0")
        if epc_pages and not self.is_sgx:
            raise CapacityError(
                f"{self.node_id} has no protected memory to reserve")
        if self.reserved_std + std_bytes > self.spec.std_capacity:
            raise CapacityError(
                f"{self.node_id}: standard reservation {self.reserved_std}+{std_bytes} "
                f"exceeds capacity {self.spec.std_capacity}")
        if self.is_sgx and self.reserved_epc_pages + epc_pages > self.spec.epc.usable_pages:
            raise CapacityError(
                f"{self.node_id}: page reservation {self.reserved_epc_pages}+{epc_pages} "
                f"exceeds usable {self.spec.epc.usable_pages}")
        self.reserved_std += std_bytes
        self.reserved_epc_pages += epc_pages
        self.changed.add(self.spec.node_id)

    def release(self, std_bytes: int, epc_pages: int) -> None:
        if std_bytes < 0 or epc_pages < 0:
            raise CapacityError("release amounts must be >= 0")
        if std_bytes > self.reserved_std or epc_pages > self.reserved_epc_pages:
            raise CapacityError(
                f"{self.node_id}: releasing more than is reserved")
        self.reserved_std -= std_bytes
        self.reserved_epc_pages -= epc_pages
        self.changed.add(self.spec.node_id)


@dataclass(frozen=True)
class Pod:
    """A placed job: the one record of which node runs it and since when."""

    job: JobSpec
    node_id: str
    placed_ms: int


@dataclass
class ClusterState:
    """All node states plus the running pods, keyed by job id.  A pod exists
    from a granted placement until its job finishes; the per-node counters
    (node reservations, driver free pages) are caches of sums over it.
    Nodes are never added or removed after construction.  `changed`, the
    change feed, holds the nodes whose reservations moved since it was
    last drained."""

    nodes: dict[str, NodeState]
    pods: dict[str, Pod] = field(default_factory=dict)
    changed: set[str] = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self):
        for node in self.nodes.values():
            node.changed = self.changed

    @classmethod
    def from_specs(cls, specs: Iterable[NodeSpec]) -> "ClusterState":
        nodes: dict[str, NodeState] = {}
        for spec in sorted(specs, key=lambda s: s.node_id):
            if spec.node_id in nodes:
                raise ValueError(f"duplicate node_id {spec.node_id!r}")
            nodes[spec.node_id] = NodeState(spec)
        if not nodes:
            raise ValueError("cluster needs at least one node")
        return cls(nodes=nodes)

    # Candidate orders, by node id.  The node set is fixed for the life of
    # the state, one run, so each is built once and dies with the run.
    @cached_property
    def sgx_nodes(self) -> list[NodeState]:
        return [node for _, node in sorted(self.nodes.items()) if node.is_sgx]

    @cached_property
    def plain_nodes(self) -> list[NodeState]:
        return [node for _, node in sorted(self.nodes.items())
                if not node.is_sgx]


def default_cluster() -> list[NodeSpec]:
    """The evaluation cluster shape: two large standard nodes and two small
    nodes with protected-memory hardware."""
    epc = EpcModel()
    return [
        NodeSpec("node-1", std_capacity=64 * 1024 * MIB),
        NodeSpec("node-2", std_capacity=64 * 1024 * MIB),
        NodeSpec("sgx-1", std_capacity=8 * 1024 * MIB, epc=epc),
        NodeSpec("sgx-2", std_capacity=8 * 1024 * MIB, epc=epc),
    ]
