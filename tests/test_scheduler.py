"""Placement policies and the per-tick scheduling walk."""

import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import GIB, PAGE, sgx_job, sgx_node, std_job, std_node
from epcsched import scheduler
from epcsched.cluster import ClusterState, EpcModel, NodeSpec, NodeState
from epcsched.metrics import METRIC_EPC_PAGES, METRIC_STD_BYTES, MetricSample
from epcsched.scheduler import (
    PendingQueue,
    binpack_select,
    feasible,
    schedule_tick,
    spread_select,
)
from epcsched.trace import JobKind, JobSpec
from stddev_oracle import exact_pstdev
from window_oracle import WindowQuery, WindowScan

USABLE = 23_936


class NodeUsage(NamedTuple):
    """Measured usage of one node, as the tests state it."""

    epc_pages: int = 0
    std_bytes: int = 0


def cluster_of(*specs) -> ClusterState:
    return ClusterState.from_specs(specs)


def with_usage(nodes, usage=None) -> ClusterState:
    """A cluster (or one over a dict of node states) whose nodes measure the
    usage `usage`, a map node id -> NodeUsage; the nodes it leaves out
    measure none."""
    cluster = nodes if isinstance(nodes, ClusterState) else ClusterState(nodes)
    usage = usage or {}
    for node_id, node in cluster.nodes.items():
        node.measured_epc_pages, node.measured_std = usage.get(node_id,
                                                               NodeUsage())
    return cluster


def queued(jobs) -> PendingQueue:
    """A queue over the jobs with all of them arrived."""
    queue = PendingQueue(jobs)
    queue.arrive(sys.maxsize)
    return queue


def with_window(cluster, store, now_ms, window_ms=25_000) -> ClusterState:
    """The cluster with every node measuring what a window query to a sample
    store answers for it."""
    usage = store.per_node_usage(WindowQuery(now_ms, window_ms))
    epc = usage.get(METRIC_EPC_PAGES, {})
    std = usage.get(METRIC_STD_BYTES, {})
    return with_usage(cluster, {nid: NodeUsage(epc.get(nid, 0), std.get(nid, 0))
                                for nid in cluster.nodes})


def assert_headroom(node, std, pages):
    """`feasible` sees exactly `std` bytes and `pages` pages of headroom on
    the node: a request of h fits and one of h + 1 does not.  Page headroom
    -1 (no protected memory) fits no enclave job."""
    def fits(job):
        return feasible(job, node)

    assert fits(std_job("m", requested=std))
    assert not fits(std_job("m", requested=std + 1))
    if pages >= 1:
        assert fits(sgx_job("p", declared=pages, requested_mem=0))
    assert not fits(sgx_job("p", declared=max(pages + 1, 1), requested_mem=0))


class TestPendingQueue:
    def test_fcfs_order(self):
        q = queued([std_job("late", submit_ms=10),
                    std_job("b", submit_ms=5), std_job("a", submit_ms=5)])
        assert [j.job_id for j in q] == ["a", "b", "late"]

    def test_jobs_are_sorted_once_and_an_id_is_refused_twice(self):
        q = PendingQueue([std_job("late", submit_ms=10),
                          std_job("m", submit_ms=10), std_job("b", submit_ms=5)])
        assert [j.job_id for j in q.jobs] == ["b", "late", "m"]
        assert len(q) == 0 and list(q) == []  # nothing has arrived yet
        for repeated in (std_job("m"), std_job("m", submit_ms=10)):
            with pytest.raises(ValueError, match="duplicate job_id 'm'"):
                PendingQueue([std_job("m", submit_ms=10), std_job("a"),
                              repeated])

    def test_arrive_queues_the_jobs_submitted_before_now(self):
        q = PendingQueue([sgx_job("a", submit_ms=5, declared=3),
                          std_job("b", submit_ms=5), sgx_job("c", submit_ms=9)])
        assert q.arrive(5) is None and len(q) == 0
        assert q.arrive(6) == 5
        assert [j.job_id for j in q] == ["a", "b"] and q.epc_pages == 3
        assert q.arrive(9) is None
        assert q.arrive(10) == 9 and len(q) == 3
        assert q.arrive(10**9) is None and q.arrived == 3

    def test_take_removes_placed_jobs_and_their_pages(self):
        jobs = [sgx_job("a", declared=5), std_job("b", submit_ms=1),
                sgx_job("c", submit_ms=2, declared=7), std_job("d", submit_ms=3)]
        q = queued(jobs)
        assert q.epc_pages == 12
        # as in a walk: `due` hands out the jobs, the failed ones are parked
        walk = q.due(ClusterState.from_specs([std_node("n1")]))
        q.take([(jobs[2], "n1"), (jobs[1], "n2")])
        q.park([walk[0], walk[3]])
        assert [j.job_id for j in q] == ["a", "d"]
        assert q.epc_pages == 5
        q.take([])
        assert len(q) == 2 and q.epc_pages == 5

    def test_drain_empties_in_order(self):
        q = queued([sgx_job("b", submit_ms=1, declared=3), std_job("a")])
        assert [j.job_id for j in q.drain()] == ["a", "b"]
        assert len(q) == 0 and q.epc_pages == 0

    def test_iteration(self):
        q = queued([std_job("a"), std_job("b", submit_ms=1)])
        assert [j.job_id for j in q] == ["a", "b"]


class TestFeasible:
    def test_enclave_job_needs_enclave_node(self):
        assert not feasible(sgx_job("j"), NodeState(std_node("n1")))

    def test_epc_headroom_uses_max_of_measured_and_reserved(self):
        node = NodeState(sgx_node("s1"))
        job = sgx_job("j", declared=14_000)
        node.measured_epc_pages = 9_000
        assert feasible(job, node)
        node.measured_epc_pages = 10_000
        assert not feasible(job, node)
        node.measured_epc_pages = 0
        node.reserve(0, 10_000)
        assert not feasible(job, node)

    def test_exact_fit_allowed(self):
        node = NodeState(sgx_node("s1"))
        node.reserve(0, USABLE - 100)
        assert feasible(sgx_job("j", declared=100), node)
        assert not feasible(sgx_job("j", declared=101), node)

    def test_std_memory_checked_for_enclave_jobs_too(self):
        node = NodeState(sgx_node("s1", std_capacity=GIB))
        assert not feasible(sgx_job("j", declared=1, requested_mem=GIB + 1), node)
        assert feasible(sgx_job("j", declared=1, requested_mem=GIB), node)

    def test_standard_job_fits_any_node_kind(self):
        job = std_job("j", requested=GIB)
        assert feasible(job, NodeState(std_node("n1")))
        assert feasible(job, NodeState(sgx_node("s1")))

    def test_measured_std_blocks(self):
        node = NodeState(std_node("n1", std_capacity=4 * GIB))
        job = std_job("j", requested=2 * GIB)
        node.measured_std = 2 * GIB
        assert feasible(job, node)
        node.measured_std = 2 * GIB + 1
        assert not feasible(job, node)

    def test_reserve_lowers_headroom_to_max_of_measured_and_reserved(self):
        # Measured usage is set once, as for one tick; reservations made
        # after it count at once.
        node = NodeState(sgx_node("s1", std_capacity=100))
        node.reserve(10, 100)
        node.measured_epc_pages, node.measured_std = 1_000, 40
        assert_headroom(node, std=60, pages=USABLE - 1_000)
        node.reserve(20, 500)  # reserved 30 and 600: measured still binds
        assert_headroom(node, std=60, pages=USABLE - 1_000)
        node.reserve(20, 500)  # reserved 50 and 1,100: reservations bind
        assert_headroom(node, std=50, pages=USABLE - 1_100)
        assert_headroom(NodeState(std_node("n1", std_capacity=9)), std=9,
                        pages=-1)


class TestBinpack:
    def test_enclave_jobs_pile_onto_first_node(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        assert binpack_select(sgx_job("j"), cluster) == "s1"

    def test_skips_full_nodes(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        cluster.nodes["s1"].reserve(0, USABLE)
        assert binpack_select(sgx_job("j", declared=10), cluster) == "s2"

    def test_none_when_nothing_fits(self):
        cluster = cluster_of(sgx_node("s1"))
        cluster.nodes["s1"].reserve(0, USABLE)
        assert binpack_select(sgx_job("j", declared=1), cluster) is None

    def test_standard_jobs_avoid_enclave_nodes(self):
        cluster = cluster_of(sgx_node("a-sgx"), std_node("z-plain"))
        assert binpack_select(std_job("j"), cluster) == "z-plain"

    def test_standard_jobs_spill_onto_enclave_nodes_last(self):
        cluster = cluster_of(sgx_node("a-sgx"), std_node("z-plain", std_capacity=GIB))
        job = std_job("j", requested=2 * GIB)
        assert binpack_select(job, cluster) == "a-sgx"


class TestSpread:
    def test_balances_epc_reservations(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        cluster.nodes["s1"].reserve(0, 4_000)
        cluster.nodes["s2"].reserve(0, 8_000)
        assert spread_select(sgx_job("j", declared=2_000), cluster) == "s1"

    def test_tie_goes_to_lowest_node_id(self):
        cluster = cluster_of(sgx_node("s2"), sgx_node("s1"))
        assert spread_select(sgx_job("j", declared=100), cluster) == "s1"

    def test_measured_usage_gates_feasibility(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        usage = {"s1": NodeUsage(epc_pages=USABLE)}
        assert spread_select(sgx_job("j", declared=10), with_usage(cluster, usage)) == "s2"

    def test_standard_jobs_balance_plain_nodes(self):
        cluster = cluster_of(std_node("n1", std_capacity=10 * GIB),
                             std_node("n2", std_capacity=10 * GIB),
                             sgx_node("s1"))
        cluster.nodes["n1"].reserve(6 * GIB, 0)
        assert spread_select(std_job("j", requested=GIB), cluster) == "n2"

    def test_standard_jobs_fall_back_to_enclave_nodes(self):
        cluster = cluster_of(std_node("n1", std_capacity=GIB), sgx_node("s1"))
        job = std_job("j", requested=2 * GIB)
        assert spread_select(job, cluster) == "s1"

    def test_none_when_nothing_fits(self):
        cluster = cluster_of(sgx_node("s1"))
        cluster.nodes["s1"].reserve(0, USABLE)
        assert spread_select(sgx_job("j", declared=1), cluster) is None

    def test_matches_exhaustive_oracle(self):
        # Independent argmin over hypothetical post-placement stddev.
        small = EpcModel(usable_bytes=100 * 4096)
        rng = np.random.default_rng(13)
        for _ in range(300):
            n_nodes = int(rng.integers(2, 5))
            ids = [f"s{i}" for i in range(n_nodes)]
            cluster = cluster_of(*(sgx_node(i, epc=small) for i in ids))
            reserved = {}
            for nid in ids:
                r = int(rng.integers(0, 80))
                cluster.nodes[nid].reserve(0, r)
                reserved[nid] = r
            measured = {nid: NodeUsage(epc_pages=int(rng.integers(0, 110)))
                        for nid in ids if rng.random() < 0.5}
            declared = int(rng.integers(1, 50))
            job = sgx_job("j", declared=declared)

            def stddev(loads):
                mean = sum(loads) / len(loads)
                return math.sqrt(sum((x - mean) ** 2 for x in loads) / len(loads))

            best, best_score = None, None
            for nid in sorted(ids):
                occupied = max(measured.get(nid, NodeUsage()).epc_pages,
                               reserved[nid])
                if occupied + declared > 100:
                    continue
                loads = [(reserved[i] + (declared if i == nid else 0)) / 100
                         for i in ids]
                score = stddev(loads)
                if best is None or score < best_score - 1e-12:
                    best, best_score = nid, score

            assert spread_select(job, with_usage(cluster, measured)) == best


def _seed_feasible(job, node, usage):
    """Admission as written before the occupancy view, kept verbatim:
    max(measured, reserved) per resource, taken for each (job, node)."""
    seen = usage.get(node.node_id, NodeUsage())
    spec = node.spec
    if job.kind.uses_epc:
        if spec.epc is None:
            return False
        occupied = max(seen.epc_pages, node.reserved_epc_pages)
        if occupied + job.declared_epc_pages > spec.epc.usable_pages:
            return False
    occupied_std = max(seen.std_bytes, node.reserved_std)
    return occupied_std + job.requested_mem <= spec.std_capacity


def _seed_binpack_select(job, nodes, usage):
    """`binpack` before candidate orders were built once per run, verbatim."""
    if job.kind.uses_epc:
        candidates = sorted((n for n in nodes.values() if n.is_sgx),
                            key=lambda n: n.node_id)
    else:
        candidates = sorted(nodes.values(), key=lambda n: (n.is_sgx, n.node_id))
    for node in candidates:
        if _seed_feasible(job, node, usage):
            return node.node_id
    return None


def _epc_fraction(node: NodeState, extra_pages: int) -> float:
    """A node's page load as `spread` computed it before its sums were kept
    across decisions, verbatim."""
    return (node.reserved_epc_pages + extra_pages) / node.spec.epc.usable_pages


def _std_fraction(node: NodeState, extra_bytes: int) -> float:
    return (node.reserved_std + extra_bytes) / node.spec.std_capacity


def _seed_pick_balanced(job, candidates, usage, load, extra):
    """The pstdev loop `spread` used before its running-sums rewrite, kept
    as the reference for exact picks, with the exact stddev in place of
    `statistics.pstdev`, which rounds differently before Python 3.11."""
    best_id = None
    best_score = 0.0
    for target in sorted(candidates, key=lambda n: n.node_id):
        if not _seed_feasible(job, target, usage):
            continue
        loads = [load(n, extra if n is target else 0) for n in candidates]
        score = exact_pstdev(loads)
        if best_id is None or score < best_score:
            best_id, best_score = target.node_id, score
    return best_id


def _seed_spread_select(job, nodes, usage):
    if job.kind.uses_epc:
        sgx = [n for n in nodes.values() if n.is_sgx]
        return _seed_pick_balanced(job, sgx, usage, _epc_fraction,
                                   job.declared_epc_pages)
    plain = [n for n in nodes.values() if not n.is_sgx]
    chosen = _seed_pick_balanced(job, plain, usage, _std_fraction,
                                 job.requested_mem)
    if chosen is not None:
        return chosen
    sgx = [n for n in nodes.values() if n.is_sgx]
    return _seed_pick_balanced(job, sgx, usage, _std_fraction,
                               job.requested_mem)


def _node_states(rows):
    """NodeStates from (node_id, usable_pages or None, std_capacity,
    reserved_std, reserved_pages) rows."""
    nodes = {}
    for node_id, pages, std_capacity, reserved_std, reserved_pages in rows:
        epc = (None if pages is None else
               EpcModel(total_bytes=pages * PAGE, usable_bytes=pages * PAGE))
        nodes[node_id] = NodeState(NodeSpec(node_id, std_capacity, epc),
                                   reserved_std, reserved_pages)
    return nodes


@st.composite
def _spread_cases(draw):
    """(rows, usage, (kind, requested_mem, declared_pages)) for spread.

    One of three shapes:
    - a few nodes on one or two huge capacities a few units apart, whose
      loads sit an ulp or so apart inside a class and across the two, where
      different variances round to one stddev;
    - 1-130 nodes with mixed capacities (mostly classes of one node), all
      identical when `equal` is drawn (exact ties);
    - up to 150 nodes in 1-6 capacity classes, multiples of one base (equal
      loads across classes) or the base +-1, with reservations from a few
      levels (long equal runs), some nodes measured full in between, and
      jobs that often ask for nothing extra (every target ties)."""
    kind = draw(st.sampled_from([JobKind.SGX, JobKind.STANDARD]))
    shape = draw(st.sampled_from(["near", "mixed", "classes"]))
    if shape == "near":
        n = draw(st.integers(2, 8))
        cap = draw(st.integers(2 ** 54, 2 ** 58))
        caps = [cap, cap + draw(st.integers(0, 3))]
        base = cap // draw(st.sampled_from([2, 4, 8])) + draw(st.integers(0, 999))
        near = [(base + draw(st.integers(0, 64)), draw(st.sampled_from(caps)))
                for _ in range(n)]
        extra = cap // draw(st.sampled_from([2, 4, 8])) + draw(
            st.integers(-999, 999))
        if kind is JobKind.SGX:
            rows = [(f"s{i}", c, GIB, 0, r) for i, (r, c) in enumerate(near)]
            return rows, {}, (kind, PAGE, extra)
        rows = [(f"n{i}", None, c, r, 0) for i, (r, c) in enumerate(near)]
        return rows, {}, (kind, extra, 0)
    if shape == "classes":
        base = draw(st.one_of(st.sampled_from([3, 100, USABLE, 8 * GIB]),
                              st.integers(2 ** 54, 2 ** 58)))
        caps = draw(st.lists(st.sampled_from(
            [base, 2 * base, 3 * base, 4 * base, base - 1, base + 1]),
            min_size=1, max_size=6, unique=True))
        levels = draw(st.lists(st.integers(0, base), min_size=1, max_size=4))
        sgx = kind is JobKind.SGX
        rows, usage = [], {}
        for i in range(draw(st.integers(1, 150))):
            node_id, cap = f"n{i:03d}", draw(st.sampled_from(caps))
            r = min(draw(st.sampled_from(levels)) * cap // base, cap)
            rows.append((node_id, cap, GIB, 0, r) if sgx
                        else (node_id, None, cap, r, 0))
            if draw(st.integers(0, 3)) == 0:
                usage[node_id] = (cap, 0) if sgx else (0, cap)
        extra = draw(st.one_of(st.just(0), st.integers(0, base)))
        return rows, usage, ((kind, PAGE, max(extra, 1)) if sgx
                             else (kind, extra, 0))
    n = draw(st.integers(1, 130))
    ids = draw(st.permutations(range(n)))
    equal = draw(st.booleans())
    rows, usage = [], {}
    for i in ids:
        if not equal or not rows:
            sgx = draw(st.booleans())
            pages = draw(st.one_of(st.sampled_from([1, 100, 23_936]),
                                   st.integers(1, 2 ** 40))) if sgx else None
            cap = draw(st.one_of(st.sampled_from([GIB, 8 * GIB]),
                                 st.integers(1, 2 ** 62)))
            reserved = (draw(st.integers(0, cap)),
                        draw(st.integers(0, pages)) if sgx else 0)
        rows.append((f"n{i:03d}", pages, cap, *reserved))
        if draw(st.integers(0, 3)) == 0:
            usage[f"n{i:03d}"] = (draw(st.integers(0, 2 ** 40)),
                                  draw(st.integers(0, 2 ** 62)))
    if kind is JobKind.SGX:
        job = (kind, draw(st.integers(0, 2 ** 33)), draw(st.integers(1, 2 ** 20)))
    else:
        job = (kind, draw(st.integers(0, 2 ** 62)), 0)
    return rows, usage, job


class TestSpreadExactOracle:
    @settings(max_examples=300, deadline=None)
    @given(_spread_cases())
    @example(([("n0", None, 232974170608267759, 29121771326033932, 0),
               ("n1", None, 232974170608267759, 29121771326033929, 0)],
              {}, (JobKind.STANDARD, 58243542652067506, 0)))
    @example(([("n0", None, 248301256974668341, 124150628487334857, 0),
               ("n1", None, 248301256974668340, 124150628487334851, 0),
               ("n2", None, 248301256974668340, 124150628487334845, 0),
               ("n3", None, 248301256974668340, 124150628487334851, 0),
               ("n4", None, 248301256974668340, 124150628487334852, 0),
               ("n5", None, 248301256974668341, 124150628487334852, 0),
               ("n6", None, 248301256974668340, 124150628487334864, 0),
               ("n7", None, 248301256974668340, 124150628487334860, 0)],
              {"n4": (0, 248301256974668340), "n5": (0, 248301256974668341),
               "n6": (0, 248301256974668340)},
              (JobKind.STANDARD, 31037657121833562, 0)))
    @example(([("a0", None, 256, 42, 0), ("a1", None, 256, 38, 0),
               ("b0", None, 64, 0, 0), ("b1", None, 64, 11, 0),
               ("h0", None, 64, 52, 0)],
              {"b0": (0, 64)}, (JobKind.STANDARD, 7, 0)))
    def test_same_pick_as_pstdev_loop(self, case):
        # The pinned examples, in order: two placements whose different
        # variances round to one stddev, so the lower id must win; the same
        # inside a class, where the lower id comes later in the walk and is
        # reached only if the stop bound allows for the rounding of each
        # lift; and a target that lands on the mean of the other loads,
        # past a measured-full node at the bottom of its class, so the stop
        # bound must take the quadratic's minimum inside the interval.
        rows, usage, (kind, requested_mem, declared) = case
        nodes = _node_states(rows)
        usage = {nid: NodeUsage(epc, std) for nid, (epc, std) in usage.items()}
        job = JobSpec("j", kind, 0, 0, requested_mem, 0, declared, 0)
        assert spread_select(job, with_usage(nodes, usage)) == _seed_spread_select(
            job, nodes, usage)

    @given(st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=40),
           st.integers(1, 2 ** 62), st.integers(1, 2 ** 40))
    def test_score_is_pstdev_of_the_exact_variance(self, reserved, cap, k):
        loads = [r / cap for r in reserved]
        exact = [Fraction(x) for x in loads]
        mean = sum(exact) / len(exact)
        var = sum((x - mean) ** 2 for x in exact) / len(exact)
        score = scheduler._sqrt_of_ratio(var.numerator, var.denominator)
        assert score == exact_pstdev(loads)
        # the same ratio in other terms, as the running sums give it
        assert scheduler._sqrt_of_ratio(var.numerator * k * k,
                                        var.denominator * k * k) == score

    @pytest.mark.parametrize("epc", [True, False])
    def test_one_change_costs_one_lift_plus_the_targets(self, monkeypatch, epc):
        # Counts lifts instead of timing: rebuilding the sums for every
        # decision would lift all n loads again.
        n = 512
        make = sgx_node if epc else std_node
        cluster = cluster_of(*(make(f"n{i:03d}") for i in range(n)))
        for i, node in enumerate(cluster.nodes.values()):
            node.reserve(i, i if epc else 0)
        job = sgx_job("j", declared=1) if epc else std_job("j", requested=1)
        # every other node is measured full, so only half are targets
        full = NodeUsage(USABLE, 64 * GIB) if epc else NodeUsage(0, 64 * GIB)
        usage = {nid: full for nid in list(cluster.nodes)[1::2]}
        assert spread_select(job, with_usage(cluster, usage)) == "n000"
        cluster.nodes["n000"].reserve(n, n if epc else 0)
        lifts = []
        lift = scheduler._lift
        monkeypatch.setattr(scheduler, "_lift",
                            lambda *args: lifts.append(args) or lift(*args))
        pick = spread_select(job, with_usage(cluster, usage))
        assert pick == _seed_spread_select(job, cluster.nodes, usage) == "n002"
        assert len(lifts) <= n // 2 + 1


    @pytest.mark.parametrize("epc", [True, False])
    def test_one_reserve_costs_its_lift_and_a_few_targets(self, monkeypatch,
                                                          epc):
        # Counts lifts and square roots instead of timing: a walk over the
        # whole list would lift and score about all 1,024 nodes.
        n = 1024
        make = sgx_node if epc else std_node
        cluster = cluster_of(*(make(f"n{i:04d}") for i in range(n)))
        for i, node in enumerate(cluster.nodes.values()):
            node.reserve(0 if epc else (n - i) * 2 ** 20, n - i if epc else 0)
        job = sgx_job("j", declared=1, requested_mem=0) if epc else std_job(
            "j", requested=2 ** 20)
        pick = spread_select(job, cluster)
        assert pick == "n1023"  # the least reserved node
        cluster.nodes[pick].reserve(job.requested_mem, job.declared_epc_pages)
        lifts, roots = [], []
        lift, sqrt = scheduler._lift, scheduler._sqrt_of_ratio
        monkeypatch.setattr(scheduler, "_lift",
                            lambda *args: lifts.append(args) or lift(*args))
        monkeypatch.setattr(scheduler, "_sqrt_of_ratio",
                            lambda *args: roots.append(args) or sqrt(*args))
        # n1023 now ties n1022, whose lower id wins
        assert spread_select(job, cluster) == "n1022"
        # one relift of the changed node, then one lift per scored target
        assert 1 <= len(roots) <= len(lifts) - 1 <= 3


def _pstdev_after(job, nodes, usage, target_id):
    """The exact stddev of the target's candidate list after placing the
    job there."""
    target = nodes[target_id]
    if job.kind.uses_epc:
        load, extra = _epc_fraction, job.declared_epc_pages
    else:
        load, extra = _std_fraction, job.requested_mem
    same = [n for n in nodes.values() if n.is_sgx == target.is_sgx]
    return exact_pstdev(load(n, extra if n is target else 0) for n in same)


class TestSpreadSumsAcrossDecisions:
    """`spread` keeps its load sums on the cluster state for the run and
    brings them up to the reservations at each decision."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_same_picks_as_pstdev_loop_over_a_sequence(self, data):
        n = data.draw(st.integers(1, 6), label="nodes")
        specs = []
        for i in range(n):
            sgx = data.draw(st.booleans())
            pages = data.draw(st.sampled_from([1, 7, 100, USABLE]))
            specs.append(NodeSpec(
                f"n{i}", data.draw(st.sampled_from([3, 1_000, 8 * GIB])),
                EpcModel(total_bytes=pages * PAGE, usable_bytes=pages * PAGE)
                if sgx else None))
        cluster = cluster_of(*specs)
        nodes = list(cluster.nodes.values())
        usage: dict[str, NodeUsage] = {}
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            step = data.draw(st.sampled_from(
                ["reserve", "release", "measure", "decide", "decide"]))
            node = data.draw(st.sampled_from(nodes))
            usable = node.spec.epc.usable_pages if node.is_sgx else 0
            if step == "reserve":
                node.reserve(
                    data.draw(st.integers(0, node.spec.std_capacity
                                          - node.reserved_std)),
                    data.draw(st.integers(0, usable - node.reserved_epc_pages)))
            elif step == "release":
                node.release(data.draw(st.integers(0, node.reserved_std)),
                             data.draw(st.integers(0, node.reserved_epc_pages)))
            elif step == "measure":
                usage[node.node_id] = NodeUsage(
                    data.draw(st.integers(0, usable)),
                    data.draw(st.integers(0, node.spec.std_capacity)))
            else:
                kind = data.draw(st.sampled_from([JobKind.SGX,
                                                  JobKind.STANDARD]))
                mem = data.draw(st.sampled_from([0, 1, 2, 500, GIB]))
                pages = data.draw(st.integers(1, USABLE)) if kind.uses_epc else 0
                job = JobSpec("j", kind, 0, 0, mem, 0, pages, 0)
                pick = spread_select(job, with_usage(cluster, usage))
                assert pick == _seed_spread_select(job, cluster.nodes, usage)
                if pick is not None and data.draw(st.booleans()):
                    cluster.nodes[pick].reserve(mem, pages)

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_same_picks_on_a_wide_cluster_over_a_sequence(self, data):
        # 200-240 nodes in a few capacity classes, with reservations and
        # requests in a few sizes so that classes hold long equal runs and
        # decisions see nodes move within them.
        n = data.draw(st.integers(200, 240), label="nodes")
        pages = data.draw(st.lists(st.sampled_from([7, 100, USABLE]),
                                   min_size=1, max_size=3, unique=True))
        stds = data.draw(st.lists(st.sampled_from([1_000, 3_000, 8 * GIB]),
                                  min_size=1, max_size=3, unique=True))
        specs = []
        for i in range(n):
            usable = data.draw(st.sampled_from(pages))
            specs.append(NodeSpec(
                f"n{i:03d}", data.draw(st.sampled_from(stds)),
                EpcModel(total_bytes=usable * PAGE, usable_bytes=usable * PAGE)
                if i % 2 else None))
        cluster = cluster_of(*specs)
        nodes = list(cluster.nodes.values())
        sizes = [0, 1, 7, 250, GIB]

        def amounts(node):
            usable = node.spec.epc.usable_pages if node.is_sgx else 0
            return (min(data.draw(st.sampled_from(sizes)),
                        node.spec.std_capacity - node.reserved_std),
                    min(data.draw(st.sampled_from(sizes)),
                        usable - node.reserved_epc_pages))

        for node in nodes:
            node.reserve(*amounts(node))
        usage: dict[str, NodeUsage] = {}
        for _ in range(data.draw(st.integers(1, 40), label="steps")):
            step = data.draw(st.sampled_from(
                ["reserve", "release", "measure", "decide", "decide"]))
            node = data.draw(st.sampled_from(nodes))
            if step == "reserve":
                node.reserve(*amounts(node))
            elif step == "release":
                node.release(
                    min(data.draw(st.sampled_from(sizes)), node.reserved_std),
                    min(data.draw(st.sampled_from(sizes)),
                        node.reserved_epc_pages))
            elif step == "measure":
                usable = node.spec.epc.usable_pages if node.is_sgx else 0
                usage[node.node_id] = data.draw(st.sampled_from(
                    [NodeUsage(), NodeUsage(usable, node.spec.std_capacity),
                     NodeUsage(usable // 2, node.spec.std_capacity // 2)]))
            else:
                kind = data.draw(st.sampled_from([JobKind.SGX,
                                                  JobKind.STANDARD]))
                mem = data.draw(st.sampled_from(sizes))
                pages = (data.draw(st.sampled_from([1, 7, 100]))
                         if kind.uses_epc else 0)
                job = JobSpec("j", kind, 0, 0, mem, 0, pages, 0)
                pick = spread_select(job, with_usage(cluster, usage))
                assert pick == _seed_spread_select(job, cluster.nodes, usage)
                if pick is not None and data.draw(st.booleans()):
                    cluster.nodes[pick].reserve(mem, pages)

    @pytest.mark.parametrize("sgx", [True, False])
    def test_reserve_and_release_between_decisions(self, sgx):
        # After the partial release "a" is still the most loaded node, but
        # a stale (unreleased) load on "a" would make "a" the best target.
        make = sgx_node if sgx else std_node
        cluster = cluster_of(*(make(i) for i in ("a", "b", "c")))
        job = sgx_job("j", declared=10) if sgx else std_job("j", requested=10)
        a = cluster.nodes["a"]
        picks = [spread_select(job, cluster)]
        a.reserve(1_000, 1_000 if sgx else 0)
        picks.append(spread_select(job, cluster))
        a.release(500, 500 if sgx else 0)
        picks.append(spread_select(job, cluster))
        a.release(500, 500 if sgx else 0)
        picks.append(spread_select(job, cluster))
        assert picks == ["a", "b", "b", "a"]

    def test_all_enclave_cluster(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        cluster.nodes["s1"].reserve(GIB, 10)
        assert spread_select(std_job("p", requested=GIB),
                             cluster) == "s2"
        assert spread_select(sgx_job("e", declared=5), cluster) == "s2"

    def test_all_plain_cluster(self):
        cluster = cluster_of(std_node("n1"), std_node("n2"))
        cluster.nodes["n1"].reserve(GIB, 0)
        assert spread_select(sgx_job("e", declared=1), cluster) is None
        assert spread_select(std_job("p", requested=GIB),
                             cluster) == "n2"

    @pytest.mark.parametrize("sgx", [True, False])
    def test_single_node(self, sgx):
        cluster = cluster_of(sgx_node("a") if sgx else std_node("a"))
        job = sgx_job("j", declared=USABLE) if sgx else std_job(
            "j", requested=64 * GIB)
        assert spread_select(job, cluster) == "a"
        cluster.nodes["a"].reserve(job.requested_mem, job.declared_epc_pages)
        assert spread_select(job, cluster) is None
        cluster.nodes["a"].release(job.requested_mem, job.declared_epc_pages)
        assert spread_select(job, cluster) == "a"

    def test_fully_reserved_node_is_never_a_target(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"), sgx_node("s3"))
        cluster.nodes["s1"].reserve(0, USABLE)
        cluster.nodes["s3"].reserve(0, 10)
        for declared in (1, USABLE - 10, USABLE):
            job = sgx_job("j", declared=declared)
            pick = spread_select(job, cluster)
            assert pick == _seed_spread_select(job, cluster.nodes, {}) == "s2"

    def test_scores_are_pstdev_across_decisions(self, monkeypatch):
        # A uniform error in the scale of the sums leaves every pick alone,
        # so the score values themselves are checked.
        scores = []
        sqrt = scheduler._sqrt_of_ratio
        monkeypatch.setattr(scheduler, "_sqrt_of_ratio",
                            lambda *args: scores.append(sqrt(*args))
                            or scores[-1])
        cluster = cluster_of(*(sgx_node(f"s{i}") for i in range(4)),
                             std_node("n1"), std_node("n2", 3 * GIB))
        for i, node in enumerate(cluster.nodes.values()):
            node.reserve(i * 7 * 2 ** 20, 1_000 * i if node.is_sgx else 0)
        for job in [sgx_job("a", declared=3_333), std_job("b", requested=GIB),
                    sgx_job("c", declared=2_000), std_job("d", requested=GIB)]:
            scores.clear()
            pick = spread_select(job, cluster)
            assert pick == _seed_spread_select(job, cluster.nodes, {})
            expected = {_pstdev_after(job, cluster.nodes, {}, nid)
                        for nid in cluster.nodes
                        if _seed_feasible(job, cluster.nodes[nid], {})
                        and cluster.nodes[nid].is_sgx == cluster.nodes[pick].is_sgx}
            assert scores and set(scores) <= expected
            assert min(scores) == _pstdev_after(job, cluster.nodes, {}, pick)
            cluster.nodes[pick].reserve(job.requested_mem,
                                        job.declared_epc_pages)


class TestScheduleTick:
    def test_places_in_fcfs_order_and_removes_from_queue(self):
        cluster = cluster_of(sgx_node("s1"))
        q = queued([sgx_job("b", submit_ms=5, declared=100),
                    sgx_job("a", submit_ms=0, declared=100)])
        placements = schedule_tick(q, cluster)
        assert [(job.job_id, node_id) for job, node_id in placements] == [
            ("a", "s1"), ("b", "s1")]
        assert len(q) == 0
        assert cluster.nodes["s1"].reserved_epc_pages == 200

    def test_same_tick_reservations_are_visible(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        big = USABLE - 100
        q = queued([sgx_job("a", declared=big), sgx_job("b", declared=big)])
        placements = schedule_tick(q, cluster)
        assert {(job.job_id, node_id) for job, node_id in placements} == {
            ("a", "s1"), ("b", "s2")}

    def test_no_head_of_line_blocking(self):
        cluster = cluster_of(sgx_node("s1"))
        q = queued([sgx_job("huge", submit_ms=0, declared=USABLE + 1),
                    sgx_job("ok", submit_ms=1, declared=10)])
        placements = schedule_tick(q, cluster)
        assert [job.job_id for job, _ in placements] == ["ok"]
        assert [j.job_id for j in q] == ["huge"]

    def test_measured_usage_respected(self):
        cluster = cluster_of(sgx_node("s1"))
        store = WindowScan()
        store.append(MetricSample(1_000, "s1", "old", METRIC_EPC_PAGES, USABLE))
        job = sgx_job("j", declared=10)
        q = queued([job])
        assert schedule_tick(q, with_window(cluster, store, 10_000)) == []
        # by 27s the stale sample has left the 25s window
        assert schedule_tick(q, with_window(cluster, store, 27_000)) == [
            (job, "s1")]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            schedule_tick(PendingQueue(), cluster_of(std_node("n1")),
                          policy="notreal")

    def test_spread_policy_dispatch(self):
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"))
        cluster.nodes["s1"].reserve(0, 1_000)
        q = queued([sgx_job("j", declared=10)])
        placements = schedule_tick(q, cluster, policy="spread")
        assert placements[0][1] == "s2"


_SEED_POLICIES = {"binpack": _seed_binpack_select, "spread": _seed_spread_select}


def _seed_schedule_tick(jobs, nodes, usage, policy):
    """The walk `schedule_tick` made before it skipped any job, kept
    verbatim as the reference for exact placements, over the seed policies
    and admission.  `usage` is the measured usage; returns the (job, node
    id) placements and the jobs left queued."""
    select = _SEED_POLICIES[policy]
    queue = sorted(jobs, key=lambda j: (j.submit_ms, j.job_id))
    placements: list[tuple[JobSpec, str]] = []
    for job in list(queue):
        node_id = select(job, nodes, usage)
        if node_id is None:
            continue
        nodes[node_id].reserve(job.requested_mem, job.declared_epc_pages)
        queue.remove(job)
        placements.append((job, node_id))
    return placements, queue


@st.composite
def _tick_nodes(draw):
    """_node_states rows and a usage map for 1-8 small nodes, so queued jobs
    contend; about a third are plain nodes."""
    rows, usage = [], {}
    for i in range(draw(st.integers(1, 8))):
        pages = draw(st.one_of(st.none(), st.integers(1, 40)))
        cap = draw(st.integers(1, 100))
        rows.append((f"n{i}", pages, cap, draw(st.integers(0, cap)),
                     draw(st.integers(0, pages)) if pages else 0))
        if draw(st.booleans()):
            usage[f"n{i}"] = (draw(st.integers(0, 50)),
                              draw(st.integers(0, 120)))
    return rows, usage


@st.composite
def _tick_jobs(draw):
    """0-60 jobs of all three kinds drawn from a few base demands, each
    repeated or nudged by one, on one memory range for both classes."""
    bases = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 12)),
                          min_size=1, max_size=6))
    jobs = []
    for i in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(list(JobKind)))
        mem, pages = draw(st.sampled_from(bases))
        mem = max(mem + draw(st.sampled_from([0, 0, -1, 1])), 0)
        pages += draw(st.sampled_from([0, 0, -1, 1]))
        pages = max(pages, 1) if kind.uses_epc else 0
        jobs.append(JobSpec(f"j{i:02d}", kind, draw(st.integers(0, 3)), 1,
                            mem, 0, pages, 0))
    return jobs


def _usage_store(usage, now_ms):
    store = WindowScan()
    for node_id, (epc, std) in usage.items():
        store.append(MetricSample(now_ms, node_id, "u", METRIC_EPC_PAGES, epc))
        store.append(MetricSample(now_ms, node_id, "u", METRIC_STD_BYTES, std))
    return store


def _candidates(job, nodes):
    return [n for n in nodes.values() if n.is_sgx or not job.kind.uses_epc]


class TestTickSkipsJobsThatFitNowhere:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(scheduler.POLICIES)), _tick_nodes(),
           _tick_jobs(), st.data())
    def test_same_walk_as_the_unskipped_loop(self, policy, nodes, jobs, data):
        # Same placements, same queue left in the same order, the same
        # backlog counter, and the same reservations on every node: on a
        # first tick, which walks new jobs, and on a second one, which takes
        # the jobs the first parked from their trees after some nodes'
        # measured usage fell.
        rows, usage = nodes
        cluster = ClusterState(_node_states(rows))
        seed_nodes, left = _node_states(rows), jobs
        queue = queued(jobs)

        def assert_same_tick(cluster_now, usage):
            nonlocal left
            placements = schedule_tick(queue, cluster_now, policy)
            seed_placements, left = _seed_schedule_tick(
                left, seed_nodes,
                {nid: NodeUsage(*u) for nid, u in usage.items()}, policy)
            got = (placements, list(queue), queue.epc_pages,
                   [(n.reserved_std, n.reserved_epc_pages)
                    for n in cluster.nodes.values()])
            want = (seed_placements, left,
                    sum(j.declared_epc_pages for j in left
                        if j.kind.uses_epc),
                    [(n.reserved_std, n.reserved_epc_pages)
                     for n in seed_nodes.values()])
            assert got == want

        assert_same_tick(
            with_window(cluster, _usage_store(usage, 1_000), 1_000), usage)
        lower = {nid: (data.draw(st.integers(0, epc)),
                       data.draw(st.integers(0, std)))
                 for nid, (epc, std) in usage.items()}
        assert_same_tick(
            with_usage(cluster, {nid: NodeUsage(*u)
                                 for nid, u in lower.items()}), lower)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(scheduler.POLICIES)), _tick_nodes(),
           _tick_jobs())
    def test_policy_contract(self, policy, nodes, jobs):
        # None exactly when no node of the kind's candidate set is feasible.
        rows, usage = nodes
        nodes = _node_states(rows)
        usage = {nid: NodeUsage(epc, std) for nid, (epc, std) in usage.items()}
        cluster = with_usage(nodes, usage)
        select = scheduler.POLICIES[policy]
        for job in jobs:
            fits = any(_seed_feasible(job, n, usage)
                       for n in _candidates(job, nodes))
            assert (select(job, cluster) is not None) == fits

    @pytest.mark.parametrize("policy", sorted(scheduler.POLICIES))
    @pytest.mark.parametrize("enclave", [True, False])
    def test_one_select_per_placement_with_parked_jobs(self, monkeypatch,
                                                       policy, enclave):
        calls = []

        def counted(job, cluster, select=scheduler.POLICIES[policy]):
            calls.append(job.job_id)
            return select(job, cluster)

        monkeypatch.setitem(scheduler.POLICIES, policy, counted)
        cluster = cluster_of(sgx_node("s1"), sgx_node("s2"), std_node("n1"))
        if enclave:
            def job(job_id, fits, submit_ms=1):
                return sgx_job(job_id, submit_ms,
                               declared=10 if fits else USABLE + 1)
        else:
            def job(job_id, fits, submit_ms=1):
                return std_job(job_id, submit_ms,
                               requested=GIB if fits else 65 * GIB)
        q = PendingQueue([job(f"f{i:03d}", False, 0) for i in range(100)]
                         + [job("a0", True), job("a1", False), job("a2", True)])
        q.arrive(1)  # the first 100
        assert schedule_tick(q, cluster, policy) == []
        assert len(calls) == 100  # nothing parked yet: every new job asked
        calls.clear()
        assert schedule_tick(q, cluster, policy) == []
        assert calls == []  # parked jobs that fit nowhere cost no call
        q.arrive(2)  # the three late jobs
        placements = schedule_tick(q, cluster, policy)
        assert [job.job_id for job, _ in placements] == ["a0", "a2"]
        assert calls == ["a0", "a2"]
        assert len(q) == 101


class TestParkedJobs:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 6),
                              st.integers(0, 6), st.booleans()), max_size=60),
           st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    max_size=3))
    def test_first_fit_is_a_scan_in_queue_order(self, steps, rooms):
        # Positions come and go in any order, so the window moves and
        # widens both ways; after every step the tree answers what a scan
        # of the parked jobs in position order answers.
        parked, held = scheduler._Parked(), {}
        for pos, pages, mem, remove in steps:
            if pos not in held:
                job = JobSpec(f"j{pos}", JobKind.SGX, 0, 1, mem, 0, pages + 1,
                              0)
                held[pos] = (pos, job)
                parked.add(held[pos])
            elif remove:
                parked.remove(pos)
                del held[pos]
            fits = [held[at] for at in sorted(held)
                    if any(held[at][1].declared_epc_pages <= p
                           and held[at][1].requested_mem <= m
                           for p, m in rooms)]
            assert parked.first(rooms) == (fits[0] if fits else None)
        assert parked.entries == held
