"""The usage ledger over whole runs: what admission reads at every tick
against a window scan of the run's own samples, the samples against the
probe rule written out over the outcomes, and closed-form edge cases."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import GIB, PAGE, sgx_job, sgx_node, std_job, std_node
from epcsched import engine, scheduler
from epcsched._units import MIB
from epcsched.cluster import EpcModel, NodeSpec
from epcsched.engine import JobStatus, SimConfig, run
from epcsched.metrics import (METRIC_EPC_PAGES, METRIC_STD_BYTES, MetricSample,
                              UsageLedger)
from epcsched.report import summary
from epcsched.synthetic import synthetic_trace
from epcsched.trace import JobKind, JobSpec, ScalingConfig, materialize
from window_oracle import WindowQuery, WindowScan

USABLE = 23_936


def recorded_run(monkeypatch, jobs, nodes, config):
    """Run, keeping (now, measured usage) of every tick: each node's
    `measured_*` fields as `schedule_tick` is entered, as the nonzero
    per-metric maps of a window query, with now the time of the ledger
    advance that comes just before."""
    views, advanced = [], []
    tick, advance = engine.schedule_tick, UsageLedger.advance

    def advancing(ledger, now_ms):
        advanced.append(now_ms)
        advance(ledger, now_ms)

    def recording(queue, cluster, *args):
        measured = {METRIC_STD_BYTES: {}, METRIC_EPC_PAGES: {}}
        for node_id, node in cluster.nodes.items():
            for metric, value in ((METRIC_STD_BYTES, node.measured_std),
                                  (METRIC_EPC_PAGES, node.measured_epc_pages)):
                if value:
                    measured[metric][node_id] = value
        views.append((advanced[-1], {k: v for k, v in measured.items() if v}))
        return tick(queue, cluster, *args)

    monkeypatch.setattr(UsageLedger, "advance", advancing)
    monkeypatch.setattr(engine, "schedule_tick", recording)
    result = run(jobs, nodes, config)
    monkeypatch.undo()
    return result, views


def probe_rule_rows(jobs, outcomes, period):
    """The samples of the old probe chain, from the outcomes: at every
    multiple of the period, each pod running strictly between its placement
    and its finish, in (node, pod) order, pages before bytes."""
    by_id = {job.job_id: job for job in jobs}
    ran = [o for o in outcomes if o.status is JobStatus.COMPLETED]
    end = max((o.finished_ms for o in ran), default=0)
    rows = []
    for t in range(0, end, period):
        for o in sorted((o for o in ran if o.started_ms < t < o.finished_ms),
                        key=lambda o: (o.node_id, o.job_id)):
            job = by_id[o.job_id]
            if job.kind.uses_epc:
                rows.append((t, o.node_id, o.job_id, METRIC_EPC_PAGES,
                             job.actual_epc_pages))
                rows.append((t, o.node_id, o.job_id, METRIC_STD_BYTES,
                             job.requested_mem))
            else:
                rows.append((t, o.node_id, o.job_id, METRIC_STD_BYTES,
                             job.actual_mem))
    return rows


def assert_ledger_matches_samples(result, views, jobs, config):
    rows = [(s.time_ms, s.node_id, s.pod_id, s.metric, s.value)
            for s in result.store.samples()]
    assert rows == probe_rule_rows(jobs, result.outcomes,
                                   config.probe_period_ms)
    assert len(result.store) == len(rows)
    store = WindowScan()
    for row in rows:
        store.append(MetricSample(*row))
    for now, measured in views:
        assert measured == store.per_node_usage(
            WindowQuery(now, config.window_ms)), now


@st.composite
def _nodes(draw):
    """1-6 small nodes, about half with protected memory, so jobs contend."""
    nodes = []
    for i in range(draw(st.integers(1, 6))):
        std = draw(st.integers(64, 1_024)) * MIB
        if draw(st.booleans()):
            pages = draw(st.integers(20, 200))
            epc = EpcModel(total_bytes=256 * PAGE, usable_bytes=pages * PAGE)
            nodes.append(NodeSpec(f"s{i}", std, epc))
        else:
            nodes.append(NodeSpec(f"n{i}", std))
    return nodes


@st.composite
def _jobs(draw):
    """0-40 jobs of all three kinds; malicious ones use more pages than
    they declare."""
    jobs = []
    for i in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(list(JobKind)))
        submit = draw(st.integers(0, 60_000))
        duration = draw(st.integers(0, 40_000))
        mem = draw(st.integers(0, 512)) * MIB
        if kind is JobKind.STANDARD:
            jobs.append(JobSpec(f"j{i:02d}", kind, submit, duration, mem,
                                draw(st.integers(0, 2 * mem)), 0, 0))
            continue
        declared = draw(st.integers(1, 100))
        actual = (draw(st.integers(0, declared)) if kind is JobKind.SGX
                  else draw(st.integers(declared + 1, 2 * declared + 5)))
        jobs.append(JobSpec(f"j{i:02d}", kind, submit, duration, mem,
                            actual * PAGE, declared, actual))
    return jobs


@st.composite
def _configs(draw):
    probe = draw(st.integers(500, 20_000))
    return SimConfig(
        scheduler_period_ms=draw(st.integers(500, 15_000)),
        probe_period_ms=probe,
        window_ms=probe + draw(st.integers(1, 30_000)),
        policy=draw(st.sampled_from(sorted(scheduler.POLICIES))),
        enforce_limits=draw(st.booleans()),
        include_startup_delays=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(jobs=_jobs(), nodes=_nodes(), config=_configs())
def test_admission_reads_the_window_of_the_run_samples(jobs, nodes, config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        result, views = recorded_run(monkeypatch, jobs, nodes, config)
    assert_ledger_matches_samples(result, views, jobs, config)


@settings(max_examples=100, deadline=None)
@given(jobs=_jobs(), nodes=_nodes(), config=_configs())
def test_run_totals_match_their_reference_computations(jobs, nodes, config):
    result = run(jobs, nodes, config)
    assert result.makespan_ms == summary(result.outcomes)["makespan_ms"]
    assert result.outcomes == sorted(result.outcomes,
                                     key=lambda o: (o.submitted_ms, o.job_id))
    assert sorted(o.job_id for o in result.outcomes) == sorted(
        job.job_id for job in jobs)


def test_synthetic_replay_with_periods_that_do_not_divide(monkeypatch):
    # a scheduler period that divides neither the probe period nor the
    # window, on a contended default-shaped cluster with malicious jobs
    specs = materialize(synthetic_trace(n_jobs=300, span_s=600,
                                        max_duration_s=120),
                        ScalingConfig(sgx_fraction=0.5, rng_seed=3))
    specs += [sgx_job(f"liar{i}", submit_ms=i * 7_000, declared=10,
                      actual=5_000) for i in range(3)]
    nodes = [std_node("node-1", 8 * GIB), sgx_node("sgx-1"),
             sgx_node("sgx-2")]
    for enforce in (True, False):
        config = SimConfig(scheduler_period_ms=3_000, probe_period_ms=7_000,
                           window_ms=16_000, enforce_limits=enforce)
        result, views = recorded_run(monkeypatch, specs, nodes, config)
        assert len(views) > 100
        assert_ledger_matches_samples(result, views, specs, config)


def test_invariant_checks_agree(monkeypatch):
    # the engine's own check compares the ledger with a fresh window at
    # every event, finishes between ticks included
    specs = materialize(synthetic_trace(n_jobs=120, span_s=600,
                                        max_duration_s=120),
                        ScalingConfig(sgx_fraction=0.5, rng_seed=5))
    config = SimConfig(scheduler_period_ms=3_000, probe_period_ms=7_000,
                       window_ms=16_000, check_invariants=True)
    result, views = recorded_run(monkeypatch, specs, [sgx_node("s1"),
                                                      std_node("n1", GIB)],
                                 config)
    assert_ledger_matches_samples(result, views, specs, config)


# Closed-form edge cases, default periods unless noted: scheduler 5s, probe
# 10s, window 25s.  "big" asks for the whole node, so it is placed at the
# first tick at which "a" no longer counts, neither as a reservation nor as
# measured usage.

def blocked_start(first, config=SimConfig()):
    big = std_job("big", submit_ms=0, requested=8 * GIB)
    result = run([first, big], [std_node("n1", 8 * GIB)], config)
    by_id = {o.job_id: o for o in result.outcomes}
    return by_id, [(s.time_ms, s.pod_id) for s in result.store.samples()]


class TestEdges:
    def test_finish_before_first_probe_tick_never_counts(self):
        # placed at 5s, finished at 9.999s: no probe tick in between
        by_id, samples = blocked_start(std_job("a", duration_ms=4_999))
        assert by_id["a"].finished_ms == 9_999
        assert samples == []
        assert by_id["big"].started_ms == 10_000

    def test_finish_on_a_probe_tick_excludes_that_tick(self):
        # placed at 5s, finished at 20s: sampled at 10s only, so it counts
        # through 10s + 25s
        by_id, samples = blocked_start(std_job("a", duration_ms=15_000))
        assert samples == [(10_000, "a")]
        assert by_id["big"].started_ms == 40_000

    def test_counts_at_last_plus_window_and_not_one_tick_later(self):
        # placed at 1s, finished at 11s: last sample at 10s, so the tick at
        # exactly 35s still counts it and the next one, at 36s, does not
        by_id, samples = blocked_start(std_job("a", duration_ms=10_000),
                                       SimConfig(scheduler_period_ms=1_000))
        assert by_id["a"].started_ms == 1_000
        assert [t for t, pod in samples if pod == "a"] == [10_000]
        assert by_id["big"].started_ms == 36_000

    def test_killed_enclave_job_never_appears(self):
        # the liar is killed by the tick at 5s, whose walk still saw its
        # reservation; "big", behind it, needs every page and gets them at 10s
        liar = sgx_job("liar", declared=10, actual=20)
        big = sgx_job("big", submit_ms=1, declared=USABLE)
        result = run([liar, big], [sgx_node("s1")],
                     SimConfig(check_invariants=True))
        by_id = {o.job_id: o for o in result.outcomes}
        assert by_id["liar"].status is JobStatus.KILLED
        assert by_id["big"].started_ms == 10_000
        assert {s.pod_id for s in result.store.samples()} == {"big"}


def test_empty_run_has_no_samples():
    result = run([], [std_node("n1")])
    assert len(result.store) == 0 and list(result.store.samples()) == []

