"""Page-grant accounting and the enclave startup cost curve."""

import pytest
from hypothesis import given, strategies as st

from conftest import sgx_node, std_node
from epcsched.cluster import ClusterState, EpcModel
from epcsched.driver import DriverError, DriverState, InitResult, startup_delay

MODEL = EpcModel()
MIB = 1024 * 1024


def fresh_driver(total: int = 100) -> DriverState:
    return DriverState({"n1": total})


class TestLimits:
    def test_register_and_read_back(self):
        d = fresh_driver()
        d.register_limit("p1", 40)
        assert d.limit_of("p1") == 40
        assert d.limit_of("p2") is None

    def test_reregistration_rejected(self):
        d = fresh_driver()
        d.register_limit("p1", 40)
        with pytest.raises(DriverError):
            d.register_limit("p1", 80)
        assert d.limit_of("p1") == 40

    def test_negative_limit_rejected(self):
        d = fresh_driver()
        with pytest.raises(ValueError):
            d.register_limit("p1", -1)


class TestEnclaveInit:
    def test_grant_moves_pages(self):
        d = fresh_driver(100)
        d.register_limit("p1", 60)
        assert d.enclave_init("n1", "p1", 60) is InitResult.GRANTED
        assert d.nodes["n1"].free_pages == 40
        assert d.nodes["n1"].owned == {"p1": 60}

    def test_limit_denial(self):
        d = fresh_driver(100)
        d.register_limit("p1", 10)
        assert d.enclave_init("n1", "p1", 11) is InitResult.DENIED_LIMIT
        assert d.nodes["n1"].free_pages == 100
        assert "p1" not in d.nodes["n1"].owned

    def test_capacity_denial(self):
        d = fresh_driver(5)
        d.register_limit("p1", 100)
        assert d.enclave_init("n1", "p1", 6) is InitResult.DENIED_CAPACITY
        assert d.nodes["n1"].free_pages == 5

    def test_limit_checked_before_capacity(self):
        d = fresh_driver(5)
        d.register_limit("p1", 10)
        assert d.enclave_init("n1", "p1", 100) is InitResult.DENIED_LIMIT

    def test_grants_accumulate_against_limit(self):
        d = fresh_driver(100)
        d.register_limit("p1", 60)
        assert d.enclave_init("n1", "p1", 40) is InitResult.GRANTED
        assert d.enclave_init("n1", "p1", 30) is InitResult.DENIED_LIMIT
        assert d.enclave_init("n1", "p1", 20) is InitResult.GRANTED
        assert d.nodes["n1"].owned["p1"] == 60

    def test_enforce_off_skips_limit(self):
        d = fresh_driver(100)
        assert d.enclave_init("n1", "p1", 80, enforce=False) is InitResult.GRANTED
        assert d.enclave_init("n1", "p1", 30, enforce=False) is InitResult.DENIED_CAPACITY

    def test_enforce_requires_registered_limit(self):
        d = fresh_driver(100)
        with pytest.raises(DriverError):
            d.enclave_init("n1", "p1", 1)

    def test_unknown_node(self):
        d = fresh_driver()
        d.register_limit("p1", 1)
        with pytest.raises(DriverError):
            d.enclave_init("nope", "p1", 1)


class TestEnclaveRelease:
    def test_partial_then_full(self):
        d = fresh_driver(100)
        d.register_limit("p1", 60)
        d.enclave_init("n1", "p1", 60)
        d.enclave_release("n1", "p1", 25)
        assert d.nodes["n1"].owned["p1"] == 35
        assert d.nodes["n1"].free_pages == 65
        d.enclave_release("n1", "p1", 35)
        assert "p1" not in d.nodes["n1"].owned
        assert d.nodes["n1"].free_pages == 100

    def test_over_release_rejected(self):
        d = fresh_driver(100)
        d.register_limit("p1", 60)
        d.enclave_init("n1", "p1", 10)
        with pytest.raises(DriverError):
            d.enclave_release("n1", "p1", 11)

    def test_release_without_grant_rejected(self):
        d = fresh_driver()
        with pytest.raises(DriverError):
            d.enclave_release("n1", "p1", 1)


class TestForCluster:
    def test_only_sgx_nodes_with_usable_budget(self):
        cluster = ClusterState.from_specs([std_node("a"), sgx_node("s1")])
        d = DriverState.for_cluster(cluster)
        assert list(d.nodes) == ["s1"]
        assert d.nodes["s1"].total_pages == 23_936
        assert d.nodes["s1"].free_pages == 23_936


@given(st.lists(
    st.tuples(st.sampled_from(["p1", "p2", "p3"]),
              st.booleans(),
              st.integers(0, 40)),
    max_size=60))
def test_conservation_under_any_op_sequence(ops):
    """free == total - sum(owned) after every successful operation."""
    d = DriverState({"n1": 100})
    for pod, is_init, pages in ops:
        try:
            if is_init:
                d.enclave_init("n1", pod, pages, enforce=False)
            else:
                d.enclave_release("n1", pod, pages)
        except DriverError:
            pass
        node = d.nodes["n1"]
        assert node.free_pages == 100 - sum(node.owned.values())
        assert node.free_pages >= 0
        assert all(v > 0 for v in node.owned.values())


class TestStartupDelay:
    def test_zero_alloc_pays_service_startup(self):
        assert startup_delay(0, MODEL) == 100.0

    def test_small_alloc(self):
        assert startup_delay(50 * MIB, MODEL) == pytest.approx(180.0, abs=1e-12)

    def test_large_alloc(self):
        assert startup_delay(100 * MIB, MODEL) == pytest.approx(750.0, abs=1e-12)

    def test_boundary_uses_cheap_slope(self):
        assert startup_delay(MODEL.usable_bytes, MODEL) == pytest.approx(
            100.0 + 1.6 * 93.5, abs=1e-12)

    def test_jump_at_boundary(self):
        below = startup_delay(MODEL.usable_bytes, MODEL)
        above = startup_delay(MODEL.usable_bytes + 1, MODEL)
        assert above - below == pytest.approx(200.0 + 2.9 * 93.5, abs=1e-4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            startup_delay(-1, MODEL)

    @given(st.integers(0, 256 * MIB), st.integers(0, 256 * MIB))
    def test_monotone_in_alloc(self, a, b):
        lo, hi = sorted((a, b))
        assert startup_delay(lo, MODEL) <= startup_delay(hi, MODEL)
