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


class TestEnclaveInit:
    def test_grant_moves_pages(self):
        d = fresh_driver(100)
        assert d.enclave_init("n1", 60, 60) is InitResult.GRANTED
        assert d.free_pages == {"n1": 40}
        assert d.total_pages == {"n1": 100}

    def test_limit_denial(self):
        d = fresh_driver(100)
        assert d.enclave_init("n1", 11, 10) is InitResult.DENIED_LIMIT
        assert d.free_pages == {"n1": 100}

    def test_capacity_denial(self):
        d = fresh_driver(5)
        assert d.enclave_init("n1", 6, 100) is InitResult.DENIED_CAPACITY
        assert d.free_pages == {"n1": 5}

    def test_limit_checked_before_capacity(self):
        d = fresh_driver(5)
        assert d.enclave_init("n1", 100, 10) is InitResult.DENIED_LIMIT

    def test_enforce_off_skips_limit(self):
        d = fresh_driver(100)
        assert d.enclave_init("n1", 80, 0, enforce=False) is InitResult.GRANTED
        assert d.enclave_init("n1", 30, 0, enforce=False) is InitResult.DENIED_CAPACITY
        assert d.free_pages == {"n1": 20}

    def test_zero_pages_granted_at_zero_limit(self):
        d = fresh_driver(0)
        assert d.enclave_init("n1", 0, 0) is InitResult.GRANTED
        assert d.free_pages == {"n1": 0}

    def test_negative_pages_rejected(self):
        d = fresh_driver()
        with pytest.raises(ValueError):
            d.enclave_init("n1", -1, 10)
        with pytest.raises(ValueError):
            d.enclave_release("n1", -1)

    def test_unknown_node(self):
        d = fresh_driver()
        with pytest.raises(DriverError):
            d.enclave_init("nope", 1, 1)
        with pytest.raises(DriverError):
            d.enclave_release("nope", 0)


class TestEnclaveRelease:
    def test_partial_then_full(self):
        """Releases return a node's granted pages in any split."""
        d = fresh_driver(100)
        d.enclave_init("n1", 35, 35)
        d.enclave_init("n1", 25, 25)
        d.enclave_release("n1", 25)
        assert d.free_pages == {"n1": 65}
        d.enclave_release("n1", 35)
        assert d.free_pages == {"n1": 100}

    def test_over_release_rejected(self):
        d = fresh_driver(100)
        d.enclave_init("n1", 10, 60)
        with pytest.raises(DriverError, match="which has 10 granted"):
            d.enclave_release("n1", 11)
        assert d.free_pages == {"n1": 90}

    def test_release_without_grant_rejected(self):
        d = fresh_driver()
        with pytest.raises(DriverError):
            d.enclave_release("n1", 1)


class TestForCluster:
    def test_only_sgx_nodes_with_usable_budget(self):
        cluster = ClusterState.from_specs([std_node("a"), sgx_node("s1")])
        d = DriverState.for_cluster(cluster)
        assert d.total_pages == {"s1": 23_936}
        assert d.free_pages == {"s1": 23_936}


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 40)), max_size=60))
def test_conservation_under_any_op_sequence(ops):
    """free == total - pages granted and not yet released, after every
    operation; an init is granted, and a release accepted, exactly when
    that count allows it."""
    d = DriverState({"n1": 100})
    held = 0
    for is_init, pages in ops:
        if is_init:
            granted = d.enclave_init("n1", pages, 0, enforce=False)
            assert (granted is InitResult.GRANTED) == (pages <= 100 - held)
            if granted is InitResult.GRANTED:
                held += pages
        elif pages <= held:
            d.enclave_release("n1", pages)
            held -= pages
        else:
            with pytest.raises(DriverError):
                d.enclave_release("n1", pages)
        assert d.free_pages["n1"] == 100 - held
        assert 0 <= d.free_pages["n1"] <= 100


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
