"""The entry points the benchmark's per-layer split wraps by name.

`bench/layers.py` replaces these attributes from outside and counts the calls
that go through them.  A renamed entry point, or a caller that stops looking
it up by name, would read 0 in the split instead of failing, so this checks
that each exists and that a replay reaches each through its name.
"""

from collections import Counter

import pytest

from conftest import sgx_job, sgx_node, std_job, std_node
from epcsched import driver, engine, metrics, scheduler
from epcsched.engine import SimConfig, run

TRACED = [(metrics.UsageLedger, "advance"),
          (engine, "schedule_tick"),
          (driver.DriverState, "enclave_init"),
          (driver.DriverState, "enclave_release")]


@pytest.mark.parametrize("owner, name", TRACED)
def test_entry_point_exists(owner, name):
    assert callable(vars(owner)[name])


def test_policy_registry():
    assert scheduler.POLICIES == {"binpack": scheduler.binpack_select,
                                  "spread": scheduler.spread_select}


@pytest.mark.parametrize("policy", sorted(scheduler.POLICIES))
def test_replay_calls_each_entry_point_by_name(monkeypatch, policy):
    calls = Counter()

    def counted(label, fn):
        def wrapper(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in TRACED:
        monkeypatch.setattr(owner, name, counted(name, vars(owner)[name]))
    for key, select in list(scheduler.POLICIES.items()):
        monkeypatch.setitem(scheduler.POLICIES, key, counted(key, select))
    jobs = [sgx_job("e", declared=10), std_job("s", submit_ms=1_000)]
    run(jobs, [sgx_node("s1"), std_node("n1")], SimConfig(policy=policy))
    assert all(calls[name] > 0 for _, name in TRACED), calls
    assert calls[policy] == 2, calls
