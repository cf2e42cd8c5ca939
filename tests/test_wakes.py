"""Parked jobs over whole runs: a replay whose walks with parked jobs visit
only the queued jobs that fit some node at their turn writes the same bytes
as a replay whose walks visit every queued job at every tick."""

import importlib.util
import io
import json
from dataclasses import replace
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from conftest import GIB, sgx_job, sgx_node, std_job, std_node
from epcsched import scheduler
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
    queue._new = []
    return list(queue._jobs.values())


def walking_everything(jobs, nodes, config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(PendingQueue, "due", due_everything)
        return artifacts(run(jobs, nodes, config))


def assert_parking_loses_nothing(jobs, nodes, config):
    assert artifacts(run(jobs, nodes, config)) == walking_everything(
        jobs, nodes, config)


# Three runs whose parked jobs must be taken at the right time and in the
# right order.
# "big" waits for the expiry of "a"'s only sample at t=35000: its finish at
# t=20000 frees the reservation, but not the measured usage.
EXPIRY = ([std_job("a", duration_ms=15_000),
           std_job("big", requested=8 * GIB)], [std_node("n1", 8 * GIB)])
# "big" fails in the walk at t=5000 behind "liar", whose init the engine
# then denies; the release makes room for "big" at t=10000.
KILL = ([sgx_job("liar", declared=10, actual=20),
         sgx_job("big", submit_ms=1, declared=USABLE)], [sgx_node("s1")])
# "b" fails behind "a" and fits again at t=40000, once "a"'s sample has
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
    assert_parking_loses_nothing(jobs, nodes, config)


@settings(max_examples=150, deadline=None)
@given(jobs=_jobs(), nodes=_nodes(), config=_configs())
def test_parked_jobs_hold_the_invariants(jobs, nodes, config):
    # `PendingQueue.check` at every event, among the engine's other checks
    run(jobs, nodes, replace(config, check_invariants=True))


def walk_only_new_jobs(monkeypatch):
    # a tick with parked jobs walks the new jobs and leaves the parked ones
    def only_new(self, cluster):
        new, self._new = self._new, []
        return new

    monkeypatch.setattr(PendingQueue, "due", only_new)


def walk_new_jobs_first(monkeypatch):
    # the new jobs walked before the parked ones queued ahead of them
    due = PendingQueue.due

    def new_first(self, cluster):
        new, self._new = self._new, []
        return chain(new, due(self, cluster))

    monkeypatch.setattr(PendingQueue, "due", new_first)


def short_headroom(monkeypatch):
    # a headroom one byte short of what `feasible` admits
    headroom = scheduler._headroom

    def one_byte_less(node):
        std, pages = headroom(node)
        return std - 1, pages

    monkeypatch.setattr(scheduler, "_headroom", one_byte_less)


@pytest.mark.parametrize("mutate, case", [
    (walk_only_new_jobs, KILL),
    (walk_new_jobs_first, ORDER),
    (short_headroom, EXPIRY),
], ids=["only-new", "new-first", "short-headroom"])
def test_a_wrong_walk_is_caught(monkeypatch, mutate, case):
    jobs, nodes = case
    assert_parking_loses_nothing(jobs, nodes, SimConfig())
    want = walking_everything(jobs, nodes, SimConfig())
    mutate(monkeypatch)
    assert artifacts(run(jobs, nodes, SimConfig())) != want


def test_contended_replay_keeps_its_outcomes():
    # `demos/contended_scaling.py`'s 7k replay: thousands of jobs parked at
    # once, on a queue far longer than the runs above
    path = Path(__file__).resolve().parents[1] / "demos/contended_scaling.py"
    spec = importlib.util.spec_from_file_location("contended_scaling", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    _, _, digest = demo.replay(7_000)
    assert digest == ("14454a17bfdab4477a55d58a1af722d2f35fc3dcaf911c02237a7a"
                      "15709449db")
