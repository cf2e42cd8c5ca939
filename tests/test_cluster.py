"""Node and EPC bookkeeping."""

import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import GIB, sgx_node, std_node
from epcsched.cluster import (
    DEFAULT_EPC_TOTAL,
    DEFAULT_EPC_USABLE,
    CapacityError,
    ClusterState,
    EpcModel,
    NodeState,
    default_cluster,
)
from epcsched.trace import RawJobRecord, ScalingConfig, materialize


class TestEpcModel:
    def test_defaults(self):
        m = EpcModel()
        assert m.total_bytes == 128 * 1024 * 1024 == DEFAULT_EPC_TOTAL
        assert m.usable_bytes == 98_041_856 == DEFAULT_EPC_USABLE
        assert m.usable_pages == 23_936

    def test_usable_pages_cached_without_changing_identity(self):
        m = EpcModel(usable_bytes=64 * 1024 * 1024)
        before = repr(m)
        assert m.usable_pages == 16_384
        assert "usable_pages" in vars(m)  # computed once, then a plain read
        assert repr(m) == before
        assert m == EpcModel(usable_bytes=64 * 1024 * 1024)
        assert hash(m) == hash(EpcModel(usable_bytes=64 * 1024 * 1024))
        smaller = replace(m, usable_bytes=32 * 1024 * 1024)
        assert smaller.usable_pages == 8_192 and smaller != m
        assert pickle.loads(pickle.dumps(m)).usable_pages == 16_384

    def test_usable_must_fit_in_total(self):
        with pytest.raises(ValueError):
            EpcModel(total_bytes=64 * 1024 * 1024, usable_bytes=98_041_856)

    def test_usable_must_be_page_aligned(self):
        with pytest.raises(ValueError):
            EpcModel(usable_bytes=98_041_857)

    def test_usable_must_be_positive(self):
        with pytest.raises(ValueError):
            EpcModel(usable_bytes=0)


def _pages_for(nbytes) -> tuple[int, int]:
    """The declared and actual pages `materialize` gives an enclave job of
    nbytes: fraction nbytes / 2**40 of a 2**40-byte budget, exact below
    2**53 bytes."""
    frac = nbytes / 2 ** 40
    (job,) = materialize([RawJobRecord("j", 0.0, 1.0, frac, frac)],
                         ScalingConfig(sgx_fraction=1.0,
                                       sgx_multiplier=2 ** 40))
    return job.declared_epc_pages, job.actual_epc_pages


class TestPagesFor:
    """Byte counts round up to whole pages where `materialize` turns an
    enclave job's bytes into pages; at least one page is declared."""

    @pytest.mark.parametrize(
        "nbytes,pages",
        [(0, 0), (1, 1), (4096, 1), (4097, 2), (8192, 2), (98_041_856, 23_936)],
    )
    def test_exact_ceiling(self, nbytes, pages):
        assert _pages_for(nbytes) == (max(1, pages), pages)

    def test_float_input(self):
        # 4096.5 bytes round to the nearest even byte count before paging
        assert _pages_for(4096.5) == (1, 1)
        assert _pages_for(4097.5) == (2, 2)

    @given(st.integers(min_value=0, max_value=2 ** 40))
    def test_ceiling_property(self, nbytes):
        _, p = _pages_for(nbytes)
        assert p * 4096 >= nbytes
        assert (p - 1) * 4096 < nbytes or p == 0


class TestNodeState:
    def test_reserve_release_std(self):
        node = NodeState(std_node(std_capacity=10 * GIB))
        node.reserve(4 * GIB, 0)
        node.reserve(6 * GIB, 0)
        assert node.reserved_std == 10 * GIB
        node.release(4 * GIB, 0)
        assert node.reserved_std == 6 * GIB

    def test_std_over_capacity(self):
        node = NodeState(std_node(std_capacity=GIB))
        with pytest.raises(CapacityError):
            node.reserve(GIB + 1, 0)

    def test_epc_on_plain_node_rejected(self):
        node = NodeState(std_node())
        with pytest.raises(CapacityError):
            node.reserve(0, 1)

    def test_epc_over_capacity(self):
        node = NodeState(sgx_node())
        node.reserve(0, 23_936)
        with pytest.raises(CapacityError):
            node.reserve(0, 1)

    def test_over_release(self):
        node = NodeState(sgx_node())
        node.reserve(0, 5)
        with pytest.raises(CapacityError):
            node.release(0, 6)

    def test_negative_rejected(self):
        node = NodeState(sgx_node())
        with pytest.raises(CapacityError):
            node.reserve(0, -1)

    @given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 2 ** 20)), max_size=30))
    def test_reserve_then_release_is_identity(self, grants):
        node = NodeState(sgx_node(std_capacity=2 ** 30))
        applied = []
        for pages, nbytes in grants:
            try:
                node.reserve(nbytes, pages)
            except CapacityError:
                continue
            applied.append((pages, nbytes))
        assert node.reserved_epc_pages == sum(p for p, _ in applied)
        assert node.reserved_std == sum(b for _, b in applied)
        for pages, nbytes in applied:
            node.release(nbytes, pages)
        assert node.reserved_epc_pages == 0
        assert node.reserved_std == 0


class TestClusterState:
    def test_nodes_sorted_by_id(self):
        cluster = ClusterState.from_specs([std_node("b"), std_node("a")])
        assert list(cluster.nodes) == ["a", "b"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            ClusterState.from_specs([std_node("a"), std_node("a")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ClusterState.from_specs([])

    def test_sgx_node_ids(self):
        cluster = ClusterState.from_specs([std_node("a"), sgx_node("s1"), sgx_node("s2")])
        assert [n.node_id for n in cluster.sgx_nodes] == ["s1", "s2"]

    def test_default_cluster_shape(self):
        cluster = ClusterState.from_specs(default_cluster())
        assert list(cluster.nodes) == ["node-1", "node-2", "sgx-1", "sgx-2"]
        assert [n.node_id for n in cluster.sgx_nodes] == ["sgx-1", "sgx-2"]
        for nid in ("sgx-1", "sgx-2"):
            assert cluster.nodes[nid].spec.epc.usable_pages == 23_936
