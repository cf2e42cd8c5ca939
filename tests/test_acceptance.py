"""Acceptance gate: the behavioral claims the package stands on, one test per
claim, each printing a single verdict line (run with -s to see them).

Model checks are exact; workload-level checks replay the bundled synthetic
trace and assert the qualitative behavior it was shaped for: capacity
monotonicity, low enclave overhead at moderate shares, limit enforcement,
and the policy contrast.  The optional last check replays a user-supplied
cluster-trace extract when EPCSCHED_BORG_TRACE points at one.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epcsched._units import MIB
from epcsched.cluster import ClusterState, EpcModel, NodeSpec, NodeState, default_cluster
from epcsched.driver import DriverError, DriverState, InitResult, startup_delay
from epcsched.engine import JobStatus, SimConfig, run
from epcsched.metrics import MetricSample
from epcsched.report import mean_waiting, turnaround_sum
from epcsched.scheduler import binpack_select, spread_select
from epcsched.synthetic import load_bundled_trace
from epcsched.trace import (JobKind, JobSpec, ScalingConfig, inject_malicious,
                            materialize, parse_trace, slice_and_sample)
from stddev_oracle import exact_pstdev
from window_oracle import WindowQuery, WindowScan

SPAN_MS = 3_600_000
PAGE = 4096


def _pass(name: str) -> None:
    print(f"[acceptance] {name}: PASS", flush=True)


@pytest.fixture(scope="module")
def records():
    return load_bundled_trace()


@pytest.fixture(scope="module")
def fraction_runs(records):
    """One replay per enclave share on the default cluster; reused by the
    impact, enforcement, and policy checks."""
    out = {}
    for frac in (0.0, 0.25, 0.5, 1.0):
        jobs = materialize(records, ScalingConfig(sgx_fraction=frac))
        out[frac] = (jobs, run(jobs, default_cluster(), SimConfig()))
    return out


def test_startup_model_exactness():
    model = EpcModel()
    rng = np.random.default_rng(2024)
    allocs = rng.uniform(0.0, 256.0 * MIB, size=10_000)
    allocs[:5] = [0.0, model.usable_bytes, model.usable_bytes + 1.0,
                  50.0 * MIB, 100.0 * MIB]
    t0 = time.perf_counter()
    for alloc in allocs:
        mib = alloc / MIB
        if alloc <= model.usable_bytes:
            want = 100.0 + 1.6 * mib
        else:
            want = 100.0 + 200.0 + 4.5 * mib
        got = startup_delay(float(alloc), model)
        assert math.isclose(got, want, rel_tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"10^4 evaluations took {elapsed:.2f}s"
    _pass("startup model exactness (1e-9 rel, 10^4 allocations)")


def test_window_query_matches_bruteforce_oracle():
    def oracle(samples, metric, now, window):
        best = {}
        for s in samples:
            if s.metric != metric or s.value == 0:
                continue
            if not now - window <= s.time_ms <= now:
                continue
            key = (s.node_id, s.pod_id)
            if key not in best or s.value > best[key]:
                best[key] = s.value
        out = {}
        for (node_id, _pod), value in best.items():
            out[node_id] = out.get(node_id, 0) + value
        return out

    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1_000):
        store = WindowScan()
        kept = []
        for s in range(int(rng.integers(1, 8))):
            node = f"n{rng.integers(1, 5)}"
            pod = f"p{s}"
            metric = "m" if rng.random() < 0.75 else "other"
            times = np.sort(rng.integers(0, 500, size=rng.integers(1, 40)))
            for t in times:
                sample = MetricSample(int(t), node, pod, metric,
                                      int(rng.integers(0, 6)))
                store.append(sample)
                kept.append(sample)
        for _ in range(5):
            now = int(rng.integers(0, 600))
            window = int(rng.integers(1, 200))
            got = store.per_node_usage(WindowQuery(now, window))
            assert set(got) <= {"m", "other"}
            for metric in ("m", "other"):
                assert got.get(metric, {}) == oracle(kept, metric, now, window)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.2f}s"
    _pass(f"window query == brute-force oracle ({checked} queries, "
          f"{elapsed:.1f}s)")


def _cluster_with_usable(usable_mib: int) -> list[NodeSpec]:
    specs = []
    for s in default_cluster():
        if s.is_sgx:
            epc = replace(s.epc, total_bytes=usable_mib * MIB,
                          usable_bytes=usable_mib * MIB)
            specs.append(replace(s, epc=epc))
        else:
            specs.append(s)
    return specs


def test_epc_size_monotonicity(records):
    jobs = materialize(records, ScalingConfig(sgx_fraction=1.0))
    t0 = time.perf_counter()
    makespan = {}
    for usable_mib in (32, 64, 128, 256):
        result = run(jobs, _cluster_with_usable(usable_mib), SimConfig())
        assert all(o.status is JobStatus.COMPLETED for o in result.outcomes)
        makespan[usable_mib] = result.makespan_ms
    elapsed = time.perf_counter() - t0
    assert makespan[32] > makespan[64] > makespan[128] > makespan[256], makespan
    epc256 = _cluster_with_usable(256)[2].epc
    slack = 5_000 + max(startup_delay(j.actual_mem, epc256) for j in jobs)
    assert abs(makespan[256] - SPAN_MS) <= slack, (makespan[256], slack)
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _pass(f"EPC-size monotonicity (makespans "
          f"{[round(makespan[m] / 60_000, 1) for m in (32, 64, 128, 256)]} "
          f"min, sweep {elapsed:.1f}s)")


def test_low_sgx_impact(fraction_runs):
    mean = {frac: mean_waiting(result.outcomes)
            for frac, (_jobs, result) in fraction_runs.items()}
    dev25 = abs(mean[0.25] / mean[0.0] - 1)
    dev50 = abs(mean[0.5] / mean[0.0] - 1)
    ratio100 = mean[1.0] / mean[0.0]
    assert dev25 <= 0.25, f"25% run deviates {dev25:.1%} from baseline"
    assert dev50 <= 0.25, f"50% run deviates {dev50:.1%} from baseline"
    assert ratio100 >= 2.0, f"100% run only {ratio100:.2f}x baseline"
    _pass(f"low-SGX impact (dev 25%={dev25:.1%}, 50%={dev50:.1%}, "
          f"100% ratio {ratio100:.2f}x)")


def _honest_mean_waiting(outcomes) -> float:
    waits = [o.waiting_ms for o in outcomes
             if o.kind is not JobKind.MALICIOUS_SGX and o.started_ms is not None]
    return sum(waits) / len(waits)


def test_enforcement_efficacy(fraction_runs):
    jobs50, baseline = fraction_runs[0.5]
    usable_pages = default_cluster()[2].epc.usable_pages
    jobs_mal = inject_malicious(jobs50, n=2, declared_pages=1,
                                use_fraction=0.5, usable_pages=usable_pages)

    enforced = run(jobs_mal, default_cluster(), SimConfig(enforce_limits=True))
    killed = {o.job_id for o in enforced.outcomes
              if o.status is JobStatus.KILLED}
    assert killed == {"malicious-0", "malicious-1"}, killed
    base_wait = _honest_mean_waiting(baseline.outcomes)
    enforced_wait = _honest_mean_waiting(enforced.outcomes)
    dev = abs(enforced_wait / base_wait - 1)
    assert dev < 0.05, f"honest waiting deviates {dev:.1%} under enforcement"

    tolerant = run(jobs_mal, default_cluster(), SimConfig(enforce_limits=False))
    tolerant_wait = _honest_mean_waiting(tolerant.outcomes)
    assert tolerant_wait > base_wait, (tolerant_wait, base_wait)
    _pass(f"enforcement efficacy (exact kills; enforced dev {dev:.2%}; "
          f"unenforced honest wait {tolerant_wait / base_wait:.2f}x baseline)")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_overdeclared_allocations_always_killed(data):
    """Universal form: any enclave job allocating beyond its declared limit
    is Killed when enforcement is on, no matter the mix around it."""
    n = data.draw(st.integers(1, 10))
    jobs = []
    liars = set()
    for i in range(n):
        declared = data.draw(st.integers(1, 20_000))
        lies = data.draw(st.booleans())
        if lies:
            actual = data.draw(st.integers(declared + 1, 30_000))
            liars.add(f"j{i}")
        else:
            actual = data.draw(st.integers(0, declared))
        jobs.append(JobSpec(f"j{i}", JobKind.SGX,
                            submit_ms=data.draw(st.integers(0, 40_000)),
                            duration_ms=data.draw(st.integers(0, 20_000)),
                            requested_mem=PAGE, actual_mem=actual * PAGE,
                            declared_epc_pages=declared,
                            actual_epc_pages=actual))
    result = run(jobs, [NodeSpec("s1", 8 * 1024 * MIB, EpcModel()),
                        NodeSpec("s2", 8 * 1024 * MIB, EpcModel())],
                 SimConfig(enforce_limits=True, check_invariants=True))
    for outcome in result.outcomes:
        if outcome.job_id in liars:
            assert outcome.status is JobStatus.KILLED
        else:
            assert outcome.status is not JobStatus.KILLED


def test_overdeclared_kill_pass_line():
    _pass("over-declared allocations universally killed under enforcement")


# --- invariant property suite (one timed budget across all of it) ---

_SUITE_START: list[float] = []


@pytest.fixture(autouse=True, scope="class")
def _suite_clock(request):
    if request.cls is TestInvariantSuite and not _SUITE_START:
        _SUITE_START.append(time.perf_counter())
    yield


MODEL_SMALL = EpcModel(usable_bytes=100 * PAGE)


def _sgx_state(node_id: str, reserved: int) -> NodeState:
    state = NodeState(NodeSpec(node_id, std_capacity=8 * 1024 * MIB,
                               epc=MODEL_SMALL))
    state.reserve(0, reserved)
    return state


def _fits(job: JobSpec, node: NodeState, measured_pages: int) -> bool:
    """Page admission for an enclave job, from first principles: declared
    pages beyond max(measured, reserved) occupancy."""
    occupied = max(measured_pages, node.reserved_epc_pages)
    return occupied + job.declared_epc_pages <= node.spec.epc.usable_pages


def _measuring(nodes: dict[str, NodeState],
               pages: dict[str, int]) -> ClusterState:
    """The nodes as one cluster, each measuring the given pages (none if it
    has no entry)."""
    for node_id, node in nodes.items():
        node.measured_epc_pages = pages.get(node_id, 0)
    return ClusterState(nodes)


class TestInvariantSuite:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2 ** 24)),
                    max_size=25))
    def test_reserve_release_inverse(self, grants):
        node = _sgx_state("s1", 0)
        applied = []
        for pages, nbytes in grants:
            try:
                node.reserve(nbytes, pages)
            except Exception:
                continue
            applied.append((pages, nbytes))
        for pages, nbytes in reversed(applied):
            node.release(nbytes, pages)
        assert node.reserved_epc_pages == 0 and node.reserved_std == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=40))
    def test_driver_conservation(self, ops):
        """free == total - pages granted and not yet released."""
        driver = DriverState({"n1": 120})
        held = 0
        for is_init, pages in ops:
            if is_init:
                if driver.enclave_init("n1", pages, 0,
                                       enforce=False) is InitResult.GRANTED:
                    held += pages
            else:
                try:
                    driver.enclave_release("n1", pages)
                    held -= pages
                except DriverError:
                    assert pages > held
            free = driver.free_pages["n1"]
            assert free == 120 - held
            assert 0 <= free <= 120

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(0, 50_000), min_size=1, max_size=15),
           st.integers(1, 8_000))
    def test_fcfs_fairness(self, submits, declared):
        """Identical jobs start in submission order."""
        jobs = [JobSpec(f"j{i:02d}", JobKind.SGX, s, 6_000, PAGE,
                        declared * PAGE, declared, declared)
                for i, s in enumerate(submits)]
        result = run(jobs, [NodeSpec("s1", 8 * 1024 * MIB, EpcModel())],
                     SimConfig())
        order = sorted(result.outcomes,
                       key=lambda o: (o.submitted_ms, o.job_id))
        starts = [o.started_ms for o in order]
        assert starts == sorted(starts)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_binpack_prefix(self, data):
        """binpack picks the first feasible node of the fixed order, so every
        node before the pick is infeasible."""
        n = data.draw(st.integers(1, 5))
        nodes = {}
        for i in range(n):
            nodes[f"s{i}"] = _sgx_state(f"s{i}", data.draw(st.integers(0, 100)))
        usage = {nid: data.draw(st.integers(0, 120))
                 for nid in nodes if data.draw(st.booleans())}
        job = JobSpec("j", JobKind.SGX, 0, 0, PAGE, 0,
                      data.draw(st.integers(1, 60)), 0)
        pick = binpack_select(job, _measuring(nodes, usage))
        order = sorted(nodes)
        fits = [nid for nid in order
                if _fits(job, nodes[nid], usage.get(nid, 0))]
        assert pick == (fits[0] if fits else None)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_spread_per_decision_optimality(self, data):
        """spread's pick minimizes the post-placement stddev of reserved
        fractions over the candidate set (ties to the lowest node id)."""
        n = data.draw(st.integers(2, 5))
        reserved = {f"s{i}": data.draw(st.integers(0, 90)) for i in range(n)}
        nodes = {nid: _sgx_state(nid, r) for nid, r in reserved.items()}
        usage = {nid: data.draw(st.integers(0, 110))
                 for nid in nodes if data.draw(st.booleans())}
        declared = data.draw(st.integers(1, 50))
        job = JobSpec("j", JobKind.SGX, 0, 0, PAGE, 0, declared, 0)
        pick = spread_select(job, _measuring(nodes, usage))
        best, best_score = None, None
        for nid in sorted(nodes):
            if not _fits(job, nodes[nid], usage.get(nid, 0)):
                continue
            loads = [(reserved[other] + (declared if other == nid else 0)) / 100
                     for other in reserved]
            score = exact_pstdev(loads)
            if best is None or score < best_score - 1e-12:
                best, best_score = nid, score
        assert pick == best

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_no_overcommit_and_determinism(self, data):
        """Random honest workloads: engine-checked accounting invariants hold
        at every event, and a second run is byte-identical."""
        n = data.draw(st.integers(1, 14))
        jobs = []
        for i in range(n):
            if data.draw(st.booleans()):
                declared = data.draw(st.integers(1, 20_000))
                actual = data.draw(st.integers(0, declared))
                jobs.append(JobSpec(f"j{i}", JobKind.SGX,
                                    data.draw(st.integers(0, 50_000)),
                                    data.draw(st.integers(0, 25_000)),
                                    PAGE, actual * PAGE, declared, actual))
            else:
                req = data.draw(st.integers(0, 8 * 1024 * MIB))
                jobs.append(JobSpec(f"j{i}", JobKind.STANDARD,
                                    data.draw(st.integers(0, 50_000)),
                                    data.draw(st.integers(0, 25_000)),
                                    req, req, 0, 0))
        policy = data.draw(st.sampled_from(["binpack", "spread"]))
        cluster = [NodeSpec("n1", 16 * 1024 * MIB),
                   NodeSpec("s1", 8 * 1024 * MIB, EpcModel()),
                   NodeSpec("s2", 8 * 1024 * MIB, EpcModel())]
        config = SimConfig(policy=policy, check_invariants=True)
        first = run(jobs, cluster, config)
        assert all(o.status is JobStatus.COMPLETED for o in first.outcomes)
        second = run(jobs, cluster, config)
        assert first.outcomes == second.outcomes
        assert first.pending_epc == second.pending_epc
        assert list(first.store.samples()) == list(second.store.samples())
        assert first.makespan_ms == second.makespan_ms


def test_invariant_suite_budget():
    total = time.perf_counter() - _SUITE_START[0]
    assert total < 30.0, f"invariant suite took {total:.1f}s"
    _pass(f"invariant property suite ({total:.1f}s)")


def test_policy_contrast(fraction_runs):
    jobs100, binpack_run = fraction_runs[1.0]
    spread_run = run(jobs100, default_cluster(), SimConfig(policy="spread"))
    tt_binpack = turnaround_sum(binpack_run.outcomes)
    tt_spread = turnaround_sum(spread_run.outcomes)
    assert tt_binpack <= tt_spread, (tt_binpack, tt_spread)
    _pass(f"policy contrast (binpack {tt_binpack} <= spread {tt_spread})")


def test_external_trace_ordering():
    root = os.environ.get("EPCSCHED_BORG_TRACE")
    if not root:
        pytest.skip("EPCSCHED_BORG_TRACE not set; external replay skipped")
    scaling = ScalingConfig(slice_start_s=6_480, slice_end_s=10_080,
                            sampling_stride=1_200, sgx_fraction=1.0)
    records = slice_and_sample(parse_trace(root, fmt="borg_tables"), scaling)
    jobs = materialize(records, scaling)
    makespan = {}
    for usable_mib in (32, 64, 128, 256):
        result = run(jobs, _cluster_with_usable(usable_mib), SimConfig())
        makespan[usable_mib] = result.makespan_ms
    assert makespan[32] > makespan[64] > makespan[128] > makespan[256], makespan
    _pass("external trace EPC-size ordering")
