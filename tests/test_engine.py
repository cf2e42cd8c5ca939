"""Replay engine: tick order, job lifecycle, and run-level invariants."""

import re

import pytest

from conftest import GIB, sgx_job, sgx_node, std_job, std_node
from epcsched import scheduler
from epcsched.cluster import NodeState
from epcsched.driver import DriverState
from epcsched.metrics import UsageLedger
from epcsched.scheduler import PendingQueue
from epcsched.engine import ConfigError, JobStatus, SimConfig, run
from epcsched.trace import JobKind

PAGE = 4096
USABLE = 23_936


def outcomes_by_id(result):
    return {o.job_id: o for o in result.outcomes}


@pytest.fixture(scope="module")
def result():
    jobs = [
        sgx_job("a", submit_ms=0, duration_ms=20_000, declared=14_362),
        sgx_job("b", submit_ms=0, duration_ms=20_000, declared=14_362),
    ]
    return run(jobs, [sgx_node("s1", std_capacity=8 * GIB)],
               SimConfig(check_invariants=True))


class TestFrozenTimeline:
    """Two identical enclave jobs on one node: the second is blocked first by
    the live reservation, then by the finished job's samples still sitting in
    the metrics window."""

    def test_first_job_timeline(self, result):
        a = outcomes_by_id(result)["a"]
        # placed at the first tick after submission; startup
        # round(100 + 1.6 * 14362 * 4096 / MiB) = 190ms extends the finish
        assert a.status is JobStatus.COMPLETED
        assert a.started_ms == 5_000
        assert a.finished_ms == 25_190
        assert a.node_id == "s1"

    def test_second_job_blocked_by_lingering_samples(self, result):
        # a's probe sample at t=20s keeps the node looking full until that
        # sample leaves the closed 25s window, after the tick at t=45s
        b = outcomes_by_id(result)["b"]
        assert b.started_ms == 50_000
        assert b.finished_ms == 70_190

    def test_makespan(self, result):
        assert result.makespan_ms == 70_190

    def test_pending_series(self, result):
        backlog = 14_362 * PAGE
        want = [(0, 0)]
        want += [(t, backlog) for t in range(5_000, 50_000, 5_000)]
        want += [(t, 0) for t in range(50_000, 80_000, 5_000)]
        assert result.pending_epc == want

    def test_probe_samples(self, result):
        rows = [(s.time_ms, s.pod_id, s.metric, s.value)
                for s in result.store.samples()]
        assert rows == [
            (10_000, "a", "epc_pages", 14_362),
            (10_000, "a", "std_bytes", PAGE),
            (20_000, "a", "epc_pages", 14_362),
            (20_000, "a", "std_bytes", PAGE),
            (60_000, "b", "epc_pages", 14_362),
            (60_000, "b", "std_bytes", PAGE),
            (70_000, "b", "epc_pages", 14_362),
            (70_000, "b", "std_bytes", PAGE),
        ]

    def test_waiting_and_turnaround(self, result):
        a = outcomes_by_id(result)["a"]
        assert a.waiting_ms == 5_000
        assert a.turnaround_ms == 25_190


class TestLifecycle:
    def test_standard_job_has_no_startup_delay(self):
        result = run([std_job("j", submit_ms=0, duration_ms=10_000)],
                     [std_node("n1")])
        j = outcomes_by_id(result)["j"]
        assert j.started_ms == 5_000
        assert j.finished_ms == 15_000

    def test_submit_after_tick_waits_for_next_tick(self):
        result = run([std_job("j", submit_ms=1, duration_ms=1_000)],
                     [std_node("n1")])
        j = outcomes_by_id(result)["j"]
        assert j.started_ms == 5_000
        assert j.waiting_ms == 4_999

    def test_startup_delays_can_be_disabled(self):
        result = run([sgx_job("a", duration_ms=20_000, declared=14_362)],
                     [sgx_node("s1")],
                     SimConfig(include_startup_delays=False))
        assert outcomes_by_id(result)["a"].finished_ms == 25_000

    def test_finish_at_a_tick_frees_its_node_for_that_tick(self):
        # "a" runs 5000-10000 and is never sampled, so only its reservation
        # holds the node; the finish at 10000 runs before the tick there.
        jobs = [std_job("a", duration_ms=5_000),
                std_job("b", submit_ms=1, duration_ms=5_000)]
        result = run(jobs, [std_node("n1", std_capacity=GIB)],
                     SimConfig(check_invariants=True))
        got = outcomes_by_id(result)
        assert (got["a"].started_ms, got["a"].finished_ms) == (5_000, 10_000)
        assert got["b"].started_ms == 10_000

    def test_zero_duration_job(self):
        result = run([std_job("j", duration_ms=0)], [std_node("n1")])
        j = outcomes_by_id(result)["j"]
        assert j.status is JobStatus.COMPLETED
        assert j.finished_ms == j.started_ms == 5_000

    def test_empty_workload(self):
        result = run([], [std_node("n1")])
        assert result.outcomes == []
        assert result.makespan_ms == 0
        assert result.pending_epc == []

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(ValueError):
            run([std_job("j"), std_job("j")], [std_node("n1")])


class TestLimitEnforcement:
    def test_over_limit_allocation_killed(self):
        lying = sgx_job("liar", declared=1, actual=100)
        result = run([lying], [sgx_node("s1")], SimConfig(check_invariants=True))
        liar = outcomes_by_id(result)["liar"]
        assert liar.status is JobStatus.KILLED
        assert liar.started_ms is None
        assert liar.finished_ms is None
        assert liar.node_id == "s1"
        assert result.makespan_ms == 0

    def test_without_enforcement_the_lie_succeeds(self):
        lying = sgx_job("liar", declared=1, actual=100)
        result = run([lying], [sgx_node("s1")],
                     SimConfig(enforce_limits=False))
        liar = outcomes_by_id(result)["liar"]
        assert liar.status is JobStatus.COMPLETED

    def test_kill_releases_reservations(self):
        # after the kill, an honest job of the same size must fit
        jobs = [sgx_job("liar", submit_ms=0, declared=1, actual=20_000),
                sgx_job("honest", submit_ms=6_000, declared=20_000)]
        result = run(jobs, [sgx_node("s1")], SimConfig(check_invariants=True))
        by_id = outcomes_by_id(result)
        assert by_id["liar"].status is JobStatus.KILLED
        assert by_id["honest"].status is JobStatus.COMPLETED

    def test_capacity_denial_without_enforcement(self):
        # both declare one page so both get admitted onto the node in one
        # tick, but the second real allocation exceeds the free pages
        jobs = [sgx_job("a", declared=1, actual=14_000),
                sgx_job("b", declared=1, actual=14_000)]
        result = run(jobs, [sgx_node("s1")], SimConfig(enforce_limits=False))
        by_id = outcomes_by_id(result)
        assert by_id["a"].status is JobStatus.COMPLETED
        assert by_id["b"].status is JobStatus.KILLED


class TestUnfinished:
    def test_unplaceable_job_marked_unfinished(self):
        job = sgx_job("toobig", declared=USABLE + 1)
        result = run([job], [sgx_node("s1")])
        o = outcomes_by_id(result)["toobig"]
        assert o.status is JobStatus.UNFINISHED
        assert o.started_ms is None
        assert o.node_id is None
        assert result.makespan_ms == 0

    def test_simulation_terminates_quickly_when_stuck(self):
        job = sgx_job("toobig", declared=USABLE + 1)
        result = run([job], [sgx_node("s1")])
        # one full window plus a period past the last progress, no more
        assert result.pending_epc[-1][0] == 35_000

    def test_not_stuck_while_submissions_remain(self):
        jobs = [sgx_job("toobig", declared=USABLE + 1),
                sgx_job("late", submit_ms=100_000, declared=100)]
        by_id = outcomes_by_id(run(jobs, [sgx_node("s1")]))
        assert by_id["late"].status is JobStatus.COMPLETED
        assert by_id["toobig"].status is JobStatus.UNFINISHED

    def test_stuck_clock_starts_at_the_later_finish(self):
        # r finishes at 10s; the tick at 10s then queues toobig, submitted at
        # 6s.  The last progress is the finish, not the submission: a window
        # plus a period past 10s is the tick at 45s.
        jobs = [std_job("r", submit_ms=0, duration_ms=5_000),
                sgx_job("toobig", submit_ms=6_000, declared=USABLE + 1)]
        result = run(jobs, [sgx_node("s1"), std_node("n1")])
        assert outcomes_by_id(result)["r"].finished_ms == 10_000
        assert outcomes_by_id(result)["toobig"].status is JobStatus.UNFINISHED
        assert result.pending_epc[-1][0] == 45_000


class TestDeterminism:
    def test_identical_runs_produce_identical_results(self):
        jobs = [sgx_job(f"s{i}", submit_ms=i * 700, duration_ms=9_000,
                        declared=3_000) for i in range(12)]
        jobs += [std_job(f"p{i}", submit_ms=i * 500, duration_ms=7_000,
                         requested=4 * GIB) for i in range(12)]
        cluster = [std_node("n1"), sgx_node("s1"), sgx_node("s2")]
        r1 = run(jobs, cluster, SimConfig(policy="spread"))
        r2 = run(jobs, cluster, SimConfig(policy="spread"))
        assert r1.outcomes == r2.outcomes
        assert r1.pending_epc == r2.pending_epc
        assert list(r1.store.samples()) == list(r2.store.samples())
        assert r1.makespan_ms == r2.makespan_ms


class TestInvariantsUnderLoad:
    @pytest.mark.parametrize("policy", ["binpack", "spread"])
    def test_honest_workload_passes_checked_run(self, policy):
        jobs = []
        for i in range(25):
            declared = 2_000 + (i * 977) % 9_000
            jobs.append(sgx_job(f"s{i}", submit_ms=(i * 1_300) % 40_000,
                                duration_ms=5_000 + (i * 700) % 20_000,
                                declared=declared,
                                actual=max(1, declared - 500)))
        for i in range(15):
            jobs.append(std_job(f"p{i}", submit_ms=(i * 2_100) % 40_000,
                                duration_ms=8_000, requested=3 * GIB))
        cluster = [std_node("n1"), std_node("n2"), sgx_node("s1"), sgx_node("s2")]
        result = run(jobs, cluster, SimConfig(policy=policy,
                                              check_invariants=True))
        statuses = {o.status for o in result.outcomes}
        assert statuses == {JobStatus.COMPLETED}

    def test_mixed_placement_prefers_plain_nodes(self):
        result = run([std_job("p"), sgx_job("s", declared=100)],
                     [std_node("n1"), sgx_node("s1")])
        by_id = outcomes_by_id(result)
        assert by_id["p"].node_id == "n1"
        assert by_id["s"].node_id == "s1"


class TestConfigValidation:
    def test_probe_must_be_inside_window(self):
        with pytest.raises(ConfigError):
            SimConfig(probe_period_ms=25_000, window_ms=25_000)

    def test_positive_periods(self):
        with pytest.raises(ConfigError):
            SimConfig(scheduler_period_ms=0)

    def test_known_policy(self):
        with pytest.raises(ConfigError):
            SimConfig(policy="roundrobin")


class TestInvariantChecker:
    """A cache that stops following the pod records is caught at the first
    event after it drifts: job "a" finishes on s1 at t=25190."""

    JOBS = [sgx_job("a", duration_ms=20_000, declared=14_362)]

    @pytest.mark.parametrize("owner, method, cached", [
        (NodeState, "release", "[4096, 14362, 0]"),
        (DriverState, "enclave_release", "[0, 0, 14362]"),
    ])
    def test_dropped_release_is_caught(self, monkeypatch, owner, method,
                                       cached):
        monkeypatch.setattr(owner, method, lambda self, *args: None)
        with pytest.raises(AssertionError, match=re.escape(
                f"t=25190 s1: reserved std, reserved pages, driver pages "
                f"{cached} != pod records [0, 0, 0]")):
            run(self.JOBS, [sgx_node("s1")], SimConfig(check_invariants=True))

    def test_missed_backlog_decrement_is_caught(self, monkeypatch):
        # "a" is placed by the tick at t=5000, which leaves the queue empty.
        take = PendingQueue.take

        def take_keeping_pages(self, placed):
            pages = self.epc_pages
            take(self, placed)
            self.epc_pages = pages

        monkeypatch.setattr(PendingQueue, "take", take_keeping_pages)
        with pytest.raises(AssertionError, match=re.escape(
                "t=5000: queue page counter 14362 != queued pages 0")):
            run(self.JOBS, [sgx_node("s1")], SimConfig(check_invariants=True))

    def test_placed_job_left_queued_is_caught(self, monkeypatch):
        # The walk at t=5000 places "a" but leaves it among the new jobs.
        due = PendingQueue.due

        def due_keeping_new(self, cluster):
            walked = self.walked
            walk = due(self, cluster)
            self.walked = walked
            return walk

        monkeypatch.setattr(PendingQueue, "due", due_keeping_new)
        with pytest.raises(AssertionError,
                           match=re.escape("t=5000: queued a has a pod")):
            run([std_job("a", duration_ms=20_000)], [sgx_node("s1")],
                SimConfig(check_invariants=True))

    def test_ledger_that_never_expires_is_caught(self, monkeypatch):
        # "a" was last sampled at t=20000, so the tick at t=50000 is the
        # first one whose window no longer counts it; "b" keeps ticking.
        place = UsageLedger.place

        def place_never_expiring(self, pod, finish_ms):
            place(self, pod, finish_ms)
            self._expiries.clear()

        monkeypatch.setattr(UsageLedger, "place", place_never_expiring)
        jobs = self.JOBS + [sgx_job("b", submit_ms=40_000, declared=100)]
        with pytest.raises(AssertionError, match=re.escape(
                "t=50000: measured usage {'s1': (8192, 14462)} != a fresh "
                "window over the pod intervals {'s1': (4096, 100)}")):
            run(jobs, [sgx_node("s1")], SimConfig(check_invariants=True))

    def test_stale_spread_sums_are_caught(self, monkeypatch):
        # "a" is placed at t=5000; the tick at t=10000 places "b" and
        # drains "a"'s change: it records the new reservation without
        # relifting.
        def stale_update(self, i):
            self.reserved[i] = self.current(self.nodes[i])

        monkeypatch.setattr(scheduler._LoadSums, "update", stale_update)
        jobs = self.JOBS + [sgx_job("b", submit_ms=6_000, declared=100)]
        with pytest.raises(AssertionError, match=re.escape(
                "t=10000: spread load sums of enclave nodes by pages != a "
                "fresh lift of their reservations")):
            run(jobs, [sgx_node("s1"), sgx_node("s2")],
                SimConfig(policy="spread", check_invariants=True))

    def test_unmoved_spread_class_is_caught(self, monkeypatch):
        # The drain at t=10000 relifts "a"'s node but leaves its key where
        # it was in its capacity class.
        update = scheduler._LoadSums.update

        def update_in_place(self, i):
            keys = self.classes[self.caps[i]]
            before = list(keys)
            update(self, i)
            keys[:] = before

        monkeypatch.setattr(scheduler._LoadSums, "update", update_in_place)
        jobs = self.JOBS + [sgx_job("b", submit_ms=6_000, declared=100)]
        with pytest.raises(AssertionError, match=re.escape(
                "t=10000: spread classes of enclave nodes by pages != a "
                "fresh sort of their reservations")):
            run(jobs, [sgx_node("s1"), sgx_node("s2")],
                SimConfig(policy="spread", check_invariants=True))

    def test_unrecorded_reservation_is_caught(self, monkeypatch):
        # "a"'s placement at t=5000 reserves on s1 without recording it.
        reserve = NodeState.reserve

        def reserve_unrecorded(self, std_bytes, epc_pages):
            reserve(self, std_bytes, epc_pages)
            self.changed.discard(self.node_id)

        monkeypatch.setattr(NodeState, "reserve", reserve_unrecorded)
        with pytest.raises(AssertionError, match=re.escape(
                "t=5000: s1 changed its reservation without recording it")):
            run(self.JOBS, [sgx_node("s1"), sgx_node("s2")],
                SimConfig(policy="spread", check_invariants=True))

    def test_job_parked_while_it_fits_is_caught(self, monkeypatch):
        # The policy turns "a" away at t=5000, though s1 is empty.
        select = scheduler.POLICIES["binpack"]
        monkeypatch.setitem(scheduler.POLICIES, "binpack",
                            lambda job, cluster: None if job.job_id == "a"
                            else select(job, cluster))
        with pytest.raises(AssertionError, match=re.escape(
                "t=5000: parked a fits s1")):
            run(self.JOBS, [sgx_node("s1")], SimConfig(check_invariants=True))

    def test_queued_job_neither_new_nor_parked_is_caught(self, monkeypatch):
        # The walk at t=5000 fails "huge", a standard job, and parks
        # nothing, so the queue loses it.
        monkeypatch.setattr(PendingQueue, "park",
                            lambda self, entries: None)
        with pytest.raises(AssertionError, match=re.escape(
                "t=5000: arrived jobs 1 != queued 0 + running 0 + recorded "
                "0")):
            run([std_job("huge", requested=65 * GIB)], [sgx_node("s1")],
                SimConfig(check_invariants=True))
