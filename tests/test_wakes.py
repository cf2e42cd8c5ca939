"""Parked jobs over whole runs: a replay whose walks visit only the new jobs
and the parked jobs that fit a node whose headroom rose writes the same
bytes as a replay whose walks visit every queued job at every tick."""

import io
import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings

from conftest import GIB, sgx_job, sgx_node, std_job, std_node
from epcsched import engine, scheduler
from epcsched.engine import SimConfig, run
from epcsched.report import summary, write_outcomes_csv, write_pending_csv
from epcsched.scheduler import PendingQueue
from test_ledger import _configs, _jobs, _nodes

USABLE = 23_936


def artifacts(result) -> tuple[str, str, str, str]:
    """The run's outcomes, pending series, samples and summary as a run
    directory holds them."""
    outcomes, pending, samples = io.StringIO(), io.StringIO(), io.StringIO()
    write_outcomes_csv(result.outcomes, outcomes)
    write_pending_csv(result.pending_epc, pending)
    result.store.write_csv(samples)
    return (outcomes.getvalue(), pending.getvalue(), samples.getvalue(),
            json.dumps(summary(result.outcomes), indent=2, sort_keys=True))


def due_everything(queue, cluster):
    """The walk before jobs were parked: every queued job, in queue order,
    with nothing parked or new left behind."""
    queue._std, queue._enclave = scheduler._Parked(), scheduler._Parked()
    queue._new, queue._seen = [], None
    return list(queue._jobs.values())


def walking_everything(jobs, nodes, config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PendingQueue, "due", due_everything)
        return artifacts(run(jobs, nodes, config))


def assert_wakes_lose_nothing(jobs, nodes, config):
    assert artifacts(run(jobs, nodes, config)) == walking_everything(
        jobs, nodes, config)


# Three runs that need a wake at the right time and in the right order.
# "big" waits for the expiry of "a"'s only sample at t=35000: its finish at
# t=20000 frees the reservation, but not the measured usage.
EXPIRY = ([std_job("a", duration_ms=15_000),
           std_job("big", requested=8 * GIB)], [std_node("n1", 8 * GIB)])
# "big" fails in the walk at t=5000 behind "liar", whose init the engine
# then denies; the release makes room for "big" at t=10000.
KILL = ([sgx_job("liar", declared=10, actual=20),
         sgx_job("big", submit_ms=1, declared=USABLE)], [sgx_node("s1")])
# "b" fails behind "a" and is woken at t=40000, once "a"'s sample has
# expired, when "c" is queued; "b" came first, and only one of them fits.
ORDER = ([std_job("a", requested=8 * GIB),
          std_job("b", submit_ms=1, requested=8 * GIB),
          std_job("c", submit_ms=36_000, requested=8 * GIB)],
         [std_node("n1", 8 * GIB)])


@settings(max_examples=200, deadline=None)
@given(jobs=_jobs(), nodes=_nodes(), config=_configs())
@example(*EXPIRY, SimConfig())
@example(*KILL, SimConfig())
@example(*ORDER, SimConfig())
def test_same_bytes_as_walking_every_queued_job(jobs, nodes, config):
    assert_wakes_lose_nothing(jobs, nodes, config)


@settings(max_examples=150, deadline=None)
@given(jobs=_jobs(), nodes=_nodes(), config=_configs())
def test_parked_jobs_hold_the_invariants(jobs, nodes, config):
    # `PendingQueue.check` at every event, among the engine's other checks
    run(jobs, nodes, replace(config, check_invariants=True))


def ignore_expiries(monkeypatch):
    # headroom from reservations alone: only releases count as rises
    def reserved_headroom(node):
        epc = node.spec.epc
        pages = -1 if epc is None else epc.usable_pages - node.reserved_epc_pages
        return node.spec.std_capacity - node.reserved_std, pages

    monkeypatch.setattr(scheduler, "_headroom", reserved_headroom)


def keep_headroom_after_kills(monkeypatch):
    # the headroom kept after the engine's denied inits released theirs
    tick = engine._Engine._on_scheduler_tick

    def tick_then_keep(self, now):
        going = tick(self, now)
        if self.queue._seen is not None:
            self.queue._seen = None
            self.queue.park([], [], self.cluster)
        return going

    monkeypatch.setattr(engine._Engine, "_on_scheduler_tick", tick_then_keep)


def walk_new_jobs_first(monkeypatch):
    # the new jobs walked before the woken ones
    merge = PendingQueue._merge

    def new_first(self, new, risen):
        yield from new
        yield from merge(self, [], risen)

    monkeypatch.setattr(PendingQueue, "_merge", new_first)


@pytest.mark.parametrize("mutate, case", [
    (ignore_expiries, EXPIRY),
    (keep_headroom_after_kills, KILL),
    (walk_new_jobs_first, ORDER),
], ids=["expiry", "kill", "order"])
def test_a_wrong_wake_is_caught(monkeypatch, mutate, case):
    jobs, nodes = case
    assert_wakes_lose_nothing(jobs, nodes, SimConfig())
    want = walking_everything(jobs, nodes, SimConfig())
    mutate(monkeypatch)
    assert artifacts(run(jobs, nodes, SimConfig())) != want
