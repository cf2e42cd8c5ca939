"""Facsimile of the kernel driver that hands out protected-memory pages.

Keeps the one thing the real driver must know on its own: how many pages each
node has left.  A pod's grant and limit come with each call, from the pod's
own record.  An enclave either gets all its pages at initialization or is
denied; there is no partial grant and no paging out of live enclaves in this
model.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping

from ._units import MIB
from .cluster import ClusterState, EpcModel


class DriverError(RuntimeError):
    """Misuse of the driver interface (unknown node, releasing more pages
    than were granted).  Indicates a bug in the caller."""


class InitResult(Enum):
    GRANTED = "granted"
    DENIED_LIMIT = "denied_limit"
    DENIED_CAPACITY = "denied_capacity"


class DriverState:
    """Free pages per enclave-capable node, with each node's total to check
    releases against.  Counters only move through init and release."""

    def __init__(self, node_totals: Mapping[str, int]):
        for node_id, total in node_totals.items():
            if total < 0:
                raise ValueError(f"negative page total for {node_id}")
        self.total_pages = dict(sorted(node_totals.items()))
        self.free_pages = dict(self.total_pages)

    @classmethod
    def for_cluster(cls, cluster: ClusterState) -> "DriverState":
        """One counter per enclave-capable node, budgeted at its usable
        pages (the slice the hardware can actually hand out)."""
        return cls({node.node_id: node.spec.epc.usable_pages
                    for node in cluster.sgx_nodes})

    def _free(self, node_id: str, pages: int) -> int:
        """Free pages on node_id, once the call's arguments check out."""
        if pages < 0:
            raise ValueError("pages must be >= 0")
        if node_id not in self.free_pages:
            raise DriverError(f"unknown node {node_id!r}")
        return self.free_pages[node_id]

    def enclave_init(self, node_id: str, pages: int, limit: int,
                     enforce: bool = True) -> InitResult:
        """Try to grant an enclave all its `pages` on node_id at once.

        With enforcement on, the grant is denied when `pages` exceeds the
        limit the pod announced; capacity denial applies either way.  The
        checks run limit first so an over-limit pod is reported as such even
        when the node is also out of pages.
        """
        free = self._free(node_id, pages)
        if enforce and pages > limit:
            return InitResult.DENIED_LIMIT
        if pages > free:
            return InitResult.DENIED_CAPACITY
        self.free_pages[node_id] = free - pages
        return InitResult.GRANTED

    def enclave_release(self, node_id: str, pages: int) -> None:
        free = self._free(node_id, pages)
        granted = self.total_pages[node_id] - free
        if pages > granted:
            raise DriverError(f"release of {pages} pages on {node_id}, "
                              f"which has {granted} granted")
        self.free_pages[node_id] = free + pages


# Enclave startup cost: the service startup every build pays, in ms, and
# the per-MiB slopes and the fixed penalty of `startup_delay`.
AESM_STARTUP_MS = 100.0
RATE_BELOW_MS_PER_MIB = 1.6
RATE_ABOVE_MS_PER_MIB = 4.5
FIXED_ABOVE_MS = 200.0


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
        return AESM_STARTUP_MS + RATE_BELOW_MS_PER_MIB * mib
    return AESM_STARTUP_MS + FIXED_ABOVE_MS + RATE_ABOVE_MS_PER_MIB * mib
