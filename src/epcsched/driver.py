"""Facsimile of the kernel driver that hands out protected-memory pages.

Keeps the two things the real driver knows: how many pages each node has left
and how many each pod owns, plus the set-once page limits pods announce.  An
enclave either gets all its pages at initialization or is denied; there is no
partial grant and no paging out of live enclaves in this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from ._units import MIB
from .cluster import ClusterState, EpcModel


class DriverError(RuntimeError):
    """Misuse of the driver interface (unknown node, unregistered pod,
    releasing pages never granted).  Indicates a bug in the caller."""


class InitResult(Enum):
    GRANTED = "granted"
    DENIED_LIMIT = "denied_limit"
    DENIED_CAPACITY = "denied_capacity"


@dataclass
class NodePages:
    """Per-node page counters.  free_pages always equals total minus the sum
    of owned pages; the counters only move through init and release."""

    total_pages: int
    free_pages: int
    owned: dict[str, int] = field(default_factory=dict)


class DriverState:
    """Page accounting across all enclave-capable nodes.

    Limits live in one flat registry keyed by pod identifier: a pod exists on
    exactly one node, and the registry models the write-once limit a pod
    announces before its enclave is built.  Attempts to re-register model a
    container trying to raise its own limit and are rejected.
    """

    def __init__(self, node_totals: Mapping[str, int]):
        self.nodes: dict[str, NodePages] = {}
        for node_id in sorted(node_totals):
            total = node_totals[node_id]
            if total < 0:
                raise ValueError(f"negative page total for {node_id}")
            self.nodes[node_id] = NodePages(total_pages=total, free_pages=total)
        self.limits: dict[str, int] = {}

    @classmethod
    def for_cluster(cls, cluster: ClusterState) -> "DriverState":
        """One counter set per enclave-capable node, budgeted at its usable
        pages (the slice the hardware can actually hand out)."""
        return cls({node.node_id: node.spec.epc.usable_pages
                    for node in cluster.sgx_nodes})

    def register_limit(self, pod_id: str, pages: int) -> None:
        if pages < 0:
            raise ValueError("limit must be >= 0")
        if pod_id in self.limits:
            raise DriverError(f"limit for {pod_id} already registered")
        self.limits[pod_id] = pages

    def limit_of(self, pod_id: str) -> int | None:
        return self.limits.get(pod_id)

    def enclave_init(self, node_id: str, pod_id: str, pages: int,
                     enforce: bool = True) -> InitResult:
        """Try to grant `pages` protected pages to pod_id on node_id.

        With enforcement on, the grant is denied when it would push the pod
        over its registered limit; capacity denial applies either way.  The
        checks run limit first so an over-limit pod is reported as such even
        when the node is also out of pages.
        """
        if pages < 0:
            raise ValueError("pages must be >= 0")
        node = self.nodes.get(node_id)
        if node is None:
            raise DriverError(f"unknown node {node_id!r}")
        held = node.owned.get(pod_id, 0)
        if enforce:
            limit = self.limits.get(pod_id)
            if limit is None:
                raise DriverError(f"no limit registered for {pod_id}")
            if held + pages > limit:
                return InitResult.DENIED_LIMIT
        if pages > node.free_pages:
            return InitResult.DENIED_CAPACITY
        if held + pages:  # a zero-page grant leaves no ownership record
            node.owned[pod_id] = held + pages
        node.free_pages -= pages
        return InitResult.GRANTED

    def enclave_release(self, node_id: str, pod_id: str, pages: int) -> None:
        if pages < 0:
            raise ValueError("pages must be >= 0")
        node = self.nodes.get(node_id)
        if node is None:
            raise DriverError(f"unknown node {node_id!r}")
        held = node.owned.get(pod_id, 0)
        if pages > held:
            raise DriverError(
                f"{pod_id} releases {pages} pages on {node_id} but owns {held}")
        if pages == held:
            node.owned.pop(pod_id, None)
        else:
            node.owned[pod_id] = held - pages
        node.free_pages += pages


def startup_delay(alloc_bytes: int | float, model: EpcModel) -> float:
    """Enclave construction time in milliseconds for an allocation of
    alloc_bytes on a node with the given protected-memory model.

    Piecewise linear in the allocation size in MiB: the cheap slope applies
    while the allocation fits the usable region; beyond it the build pays an
    extra fixed penalty and a steeper slope, since pages already get evicted
    while the enclave is being measured.
    """
    if alloc_bytes < 0:
        raise ValueError("alloc_bytes must be >= 0")
    mib = alloc_bytes / MIB
    if alloc_bytes <= model.usable_bytes:
        return model.aesm_startup_ms + model.rate_below_ms_per_mib * mib
    return (model.aesm_startup_ms + model.fixed_above_ms
            + model.rate_above_ms_per_mib * mib)
