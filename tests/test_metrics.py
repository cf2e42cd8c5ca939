"""The sliding-window query, the usage ledger that answers it, and the
samples a run streams from its pods' intervals."""

import csv
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import GIB, PAGE, sgx_job, std_job, std_node
from epcsched.cluster import ClusterState, Pod
from epcsched.metrics import (
    METRIC_EPC_PAGES,
    METRIC_STD_BYTES,
    MetricSample,
    SAMPLES_FIELDS,
    SeriesStore,
    UsageLedger,
)
from window_oracle import OutOfOrderSampleError, WindowQuery, WindowScan


def oracle_per_node_usage(samples, metric, now_ms, window_ms):
    """Reference aggregation: linear scan over every sample ever appended."""
    best = {}
    for s in samples:
        if s.metric != metric or s.value == 0:
            continue
        if not now_ms - window_ms <= s.time_ms <= now_ms:
            continue
        key = (s.node_id, s.pod_id)
        if key not in best or s.value > best[key]:
            best[key] = s.value
    out = {}
    for (node_id, _pod), value in best.items():
        out[node_id] = out.get(node_id, 0) + value
    return out


def usage_of(store, metric, now_ms, window_ms=25_000):
    """One metric's per-node map from the all-metrics window query."""
    return store.per_node_usage(WindowQuery(now_ms, window_ms)).get(metric, {})


def assert_matches_oracle(store, samples, now_ms, window_ms):
    """The one-pass query against the oracle, metric by metric; a metric
    with no qualifying sample is absent."""
    got = store.per_node_usage(WindowQuery(now_ms, window_ms))
    want = {}
    for metric in {s.metric for s in samples}:
        per_node = oracle_per_node_usage(samples, metric, now_ms, window_ms)
        if per_node:
            want[metric] = per_node
    assert got == want


def store_with(rows):
    store = WindowScan()
    for t, node, pod, metric, value in rows:
        store.append(MetricSample(t, node, pod, metric, value))
    return store


class TestAppend:
    def test_rejects_backwards_time_within_stream(self):
        store = store_with([(10, "n1", "p1", "m", 1)])
        with pytest.raises(OutOfOrderSampleError):
            store.append(MetricSample(9, "n1", "p1", "m", 1))

    def test_equal_time_allowed(self):
        store = store_with([(10, "n1", "p1", "m", 1), (10, "n1", "p1", "m", 2)])
        assert len(store) == 2

    def test_streams_are_independent(self):
        store = store_with([(10, "n1", "p1", "m", 1)])
        store.append(MetricSample(3, "n1", "p2", "m", 1))
        store.append(MetricSample(3, "n2", "p1", "m", 1))
        store.append(MetricSample(3, "n1", "p1", "other", 1))
        assert len(store) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricSample(-1, "n", "p", "m", 0)
        with pytest.raises(ValueError):
            MetricSample(0, "n", "p", "m", -1)
        with pytest.raises(ValueError):
            WindowQuery(now_ms=0, window_ms=0)
        with pytest.raises(ValueError):
            WindowQuery(now_ms=-1)


class TestWindowQuery:
    def test_max_per_pod(self):
        store = store_with([
            (5_000, "n1", "p1", "m", 10),
            (9_000, "n1", "p1", "m", 20),
        ])
        assert usage_of(store, "m", 10_000) == {"n1": 20}

    def test_sum_across_pods(self):
        store = store_with([
            (5_000, "n1", "a", "m", 5),
            (5_000, "n1", "b", "m", 7),
        ])
        assert usage_of(store, "m", 10_000) == {"n1": 12}

    def test_zero_samples_never_qualify(self):
        store = store_with([
            (5_000, "n1", "p1", "m", 0),
            (6_000, "n1", "p2", "m", 0),
        ])
        assert usage_of(store, "m", 10_000) == {}

    def test_window_is_closed_on_both_ends(self):
        store = store_with([(1_000, "n1", "p1", "m", 3)])
        assert usage_of(store, "m", 26_000, 25_000) == {"n1": 3}
        assert usage_of(store, "m", 1_000, 25_000) == {"n1": 3}
        assert usage_of(store, "m", 26_001, 25_000) == {}
        assert usage_of(store, "m", 999, 25_000) == {}

    def test_stale_pod_still_counts_inside_window(self):
        # A pod that stopped reporting holds its node's aggregate up until
        # its last sample leaves the window.
        store = store_with([(20_000, "n1", "gone", "m", 100)])
        assert usage_of(store, "m", 45_000) == {"n1": 100}
        assert usage_of(store, "m", 45_001) == {}

    def test_metric_filter(self):
        store = store_with([
            (5_000, "n1", "p1", "m", 10),
            (5_000, "n1", "p1", "other", 99),
        ])
        assert usage_of(store, "m", 10_000) == {"n1": 10}
        assert usage_of(store, "other", 10_000) == {"n1": 99}

    def test_nodes_without_samples_absent(self):
        store = store_with([(5_000, "n1", "p1", "m", 10)])
        out = store.per_node_usage(WindowQuery(10_000))
        assert out == {"m": {"n1": 10}}

    def test_matches_oracle_on_random_histories(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            store = WindowScan()
            kept = []
            n_streams = int(rng.integers(1, 7))
            for s in range(n_streams):
                node = f"n{rng.integers(1, 4)}"
                pod = f"p{s}"
                metric = "m" if rng.random() < 0.8 else "other"
                times = np.sort(rng.integers(0, 200, size=rng.integers(1, 30)))
                for t in times:
                    v = int(rng.integers(0, 5))
                    sample = MetricSample(int(t), node, pod, metric, v)
                    store.append(sample)
                    kept.append(sample)
            for _ in range(20):
                now = int(rng.integers(0, 250))
                window = int(rng.integers(1, 100))
                assert_matches_oracle(store, kept, now, window)


_STREAM_KEYS = st.tuples(st.sampled_from(["n1", "n2", "n3"]),
                         st.sampled_from(["a", "b", "c"]),
                         st.sampled_from(["m", "other"]))
_APPEND = st.tuples(st.just("append"), st.integers(0, 7),
                    st.one_of(st.just(0), st.integers(1, 30)),
                    st.integers(0, 5))
_QUERY = st.tuples(st.just("query"), st.integers(0, 700), st.integers(1, 120))
# A query whose window starts or ends exactly on an appended sample's time.
_EDGE_QUERY = st.tuples(st.just("edge"), st.integers(0, 100),
                        st.integers(1, 120), st.booleans())


@settings(max_examples=200, deadline=None)
@given(streams=st.lists(st.tuples(_STREAM_KEYS, st.integers(0, 300)),
                        min_size=1, max_size=8,
                        unique_by=lambda s: s[0]),
       ops=st.lists(st.one_of(_APPEND, _QUERY, _EDGE_QUERY), max_size=80))
def test_index_matches_oracle_on_interleaved_histories(streams, ops):
    """Appends interleave across streams that each start at their own time,
    so time is not monotone across streams; a zero step repeats the stream's
    tip.  Queries run between appends, at any `now` and on window edges."""
    store, kept = WindowScan(), []
    tips = {}
    for op in ops:
        if op[0] == "append":
            _, which, step, value = op
            (node, pod, metric), start = streams[which % len(streams)]
            t = tips.get((node, pod, metric), start) + step
            tips[(node, pod, metric)] = t
            sample = MetricSample(t, node, pod, metric, value)
            store.append(sample)
            kept.append(sample)
        else:
            if op[0] == "edge":
                if not kept:
                    continue
                _, which, window, at_start = op
                now = kept[which % len(kept)].time_ms + (window if at_start else 0)
            else:
                _, now, window = op
            assert_matches_oracle(store, kept, now, window)
    last = max((s.time_ms for s in kept), default=0)
    for now, window in ((last, 1), (last, 10_000), (last + 121, 120)):
        assert_matches_oracle(store, kept, now, window)


# Every (node, pod) pair may report both metrics, in any interleaving, each
# stream on its own clock; values come from a small range, so runs of equal
# values and changes both occur.  A query sits on, or one millisecond off,
# either edge of the window around an appended sample.
_PAIR_APPEND = st.tuples(st.just("append"), st.sampled_from(["n1", "n2"]),
                         st.sampled_from(["a", "b"]),
                         st.sampled_from([METRIC_EPC_PAGES, METRIC_STD_BYTES]),
                         st.integers(0, 9), st.integers(0, 3))
_NEAR_EDGE = st.tuples(st.just("edge"), st.integers(0, 200),
                       st.integers(1, 40), st.booleans(), st.integers(-1, 1))


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(st.one_of(_PAIR_APPEND, _NEAR_EDGE), max_size=100))
def test_one_pass_query_matches_oracle_for_each_metric(ops):
    store, kept, tips = WindowScan(), [], {}
    for op in ops:
        if op[0] == "append":
            _, node, pod, metric, step, value = op
            t = tips.get((node, pod, metric), 0) + step
            tips[(node, pod, metric)] = t
            sample = MetricSample(t, node, pod, metric, value)
            store.append(sample)
            kept.append(sample)
            continue
        _, which, window, at_start, nudge = op
        if not kept:
            continue
        t = kept[which % len(kept)].time_ms
        now = (t + window if at_start else t) + nudge
        if now >= 0:
            assert_matches_oracle(store, kept, now, window)
    for stream_tip in set(tips.values()):
        for window in (1, 5, 40):
            for now in (stream_tip, stream_tip + window, stream_tip + window + 1):
                assert_matches_oracle(store, kept, now, window)


def ledger_on(node_ids, period=10_000, window=25_000):
    """A ledger over a cluster of plain nodes with the given ids."""
    cluster = ClusterState.from_specs(std_node(nid) for nid in node_ids)
    return UsageLedger(cluster, period, window)


def measured(ledger):
    """Every node's measured (standard bytes, pages), as the ledger left
    them."""
    return {nid: (node.measured_std, node.measured_epc_pages)
            for nid, node in ledger.nodes.items()}


def window_of(store, now_ms, window_ms, node_ids):
    """A window query to a sample store as every node's (standard bytes,
    pages), zero where it has no entry."""
    usage = store.per_node_usage(WindowQuery(now_ms, window_ms))
    std = usage.get(METRIC_STD_BYTES, {})
    epc = usage.get(METRIC_EPC_PAGES, {})
    assert set(usage) <= {METRIC_STD_BYTES, METRIC_EPC_PAGES}
    assert set(std) | set(epc) <= set(node_ids)
    return {nid: (std.get(nid, 0), epc.get(nid, 0)) for nid in node_ids}


def test_ledger_advance_cost_tracks_live_pods_not_history():
    # 40k finished pods, long expired before the first advance; four live.
    ledger = ledger_on(["n0", "n1", "n2", "n3"], period=10)
    for i in range(40_000):
        pod = Pod(std_job(f"old{i}", requested=1), f"n{i % 4}", i * 10)
        ledger.place(pod, i * 10 + 25)
        ledger.finish(pod, i * 10 + 25)
    for i in range(4):
        pod = Pod(std_job(f"live{i}", requested=2), "n0", 999_000)
        ledger.place(pod, 2_000_000)
    t0 = time.perf_counter()
    ledger.advance(1_000_000)
    for now in range(1_000_001, 1_000_201):
        ledger.advance(now)
        assert measured(ledger) == {"n0": (8, 0), "n1": (0, 0), "n2": (0, 0),
                                    "n3": (0, 0)}
    assert time.perf_counter() - t0 < 0.5


def ledger_with(pods, period=10_000, window=25_000):
    """A ledger and its samples for (pod, finish_ms) pairs in placement
    order, every finish already past, on nodes "n1" and "s1"."""
    ledger = ledger_on(["n1", "s1"], period, window)
    for pod, finish_ms in pods:
        ledger.place(pod, finish_ms)
    for pod, finish_ms in sorted(pods, key=lambda p: p[1]):
        ledger.finish(pod, finish_ms)
    return ledger, SeriesStore(ledger.pods, period)


class TestSeriesStore:
    def test_samples_running_pods_in_node_then_pod_order(self):
        job_std = std_job("web", requested=2 * GIB, actual=GIB)
        job_sgx = sgx_job("enc", declared=500, actual=450, requested_mem=4096)
        job_empty = sgx_job("empty", declared=10, actual=0)
        # placed out of order: the probe sorts by node, then pod
        _, samples = ledger_with([(Pod(job_sgx, "s1", 0), 10_001),
                                  (Pod(job_std, "n1", 0), 10_001),
                                  (Pod(job_empty, "s1", 0), 10_001)])
        rows = [(s.time_ms, s.node_id, s.pod_id, s.metric, s.value)
                for s in samples.samples()]
        # an enclave pod reports its actual pages and its advertised
        # standard request; a standard pod the memory it touches
        assert rows == [
            (10_000, "n1", "web", METRIC_STD_BYTES, GIB),
            (10_000, "s1", "empty", METRIC_EPC_PAGES, 0),
            (10_000, "s1", "empty", METRIC_STD_BYTES, PAGE),
            (10_000, "s1", "enc", METRIC_EPC_PAGES, 450),
            (10_000, "s1", "enc", METRIC_STD_BYTES, 4096),
        ]
        assert len(samples) == 5

    def test_ticks_strictly_between_placement_and_finish(self):
        _, samples = ledger_with([
            (Pod(std_job("a"), "n1", 0), 30_000),       # 10s, 20s
            (Pod(std_job("b"), "n1", 10_000), 10_500),  # none
            (Pod(std_job("c"), "n1", 15_000), 60_001),  # 20s .. 60s
            (Pod(std_job("d"), "n1", 90_000), 100_001)])  # 100s
        rows = [(s.time_ms, s.pod_id) for s in samples.samples()]
        assert rows == [(10_000, "a"), (20_000, "a"), (20_000, "c"),
                        (30_000, "c"), (40_000, "c"), (50_000, "c"),
                        (60_000, "c"), (100_000, "d")]
        assert len(samples) == len(rows)

    def test_no_pods_no_samples(self):
        _, samples = ledger_with([])
        assert len(samples) == 0 and list(samples.samples()) == []
        buf = io.StringIO()
        samples.write_csv(buf)
        assert buf.getvalue() == "time_ms,node,pod,metric,value\n"


# Ids a csv writer must quote (a comma, a quote) or keep as they are (spaces).
_QUOTED_NODES = ["n1", "a,b", 'q"x', "sp ace", " lead"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_QUOTED_NODES),
                          st.sampled_from(["p", "p,", 'p"', "p q ", ""]),
                          st.integers(0, 40), st.integers(0, 50),
                          st.booleans(), st.integers(0, 3)), max_size=15),
       st.integers(1, 9))
def test_samples_file_is_what_a_writer_of_whole_rows_writes(pods, period):
    """Written one probe tick per string, the samples file has the bytes a
    csv writer gives for `_rows()`: over ids that need quoting, enclave pods
    with zero pages, pods no tick samples (placed and finished between two
    ticks) and gaps with no live pod."""
    ledger = ledger_on(_QUOTED_NODES, period, period + 1)
    placed = 0
    for i, (node, prefix, step, duration, enclave, size) in enumerate(pods):
        placed += step
        job = (sgx_job(f"{prefix}{i}", declared=3, actual=size) if enclave
               else std_job(f"{prefix}{i}", requested=size))
        ledger.place(Pod(job, node, placed), placed + duration)
    samples = SeriesStore(ledger.pods, period)
    got, want = io.StringIO(), io.StringIO()
    samples.write_csv(got)
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(SAMPLES_FIELDS)
    writer.writerows(samples._rows())
    assert got.getvalue() == want.getvalue()


class TestUsageLedger:
    def test_rejects_going_back_in_time(self):
        ledger = ledger_on(["n1"])
        ledger.advance(5_000)
        ledger.advance(5_000)
        with pytest.raises(ValueError, match="advanced to 4999ms"):
            ledger.advance(4_999)

    def test_zero_values_never_count(self):
        pod = Pod(sgx_job("empty", declared=10, actual=0), "s1", 0)
        ledger, _ = ledger_with([(pod, 30_000)])
        ledger.advance(10_000)
        assert measured(ledger) == {"n1": (0, 0), "s1": (PAGE, 0)}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["n1", "n2"]),
                              st.integers(0, 60), st.integers(0, 50),
                              st.booleans()), max_size=12),
           st.integers(1, 9), st.integers(0, 30),
           st.lists(st.integers(0, 400), max_size=30))
    def test_matches_the_store_of_its_samples(self, pods, period, extra,
                                              queries):
        """Placed at increasing times, finished at any: advanced to any
        increasing `now`, the ledger leaves on every node what a scan of its
        own samples answers."""
        window = period + 1 + extra
        placed, ledger = 0, ledger_on(["n1", "n2"], period, window)
        intervals = []
        for i, (node, step, duration, enclave) in enumerate(pods):
            placed += step
            job = (sgx_job(f"p{i}", declared=3, actual=i % 3,
                           requested_mem=i % 2) if enclave
                   else std_job(f"p{i}", requested=i % 4))
            pod = Pod(job, node, placed)
            ledger.place(pod, placed + duration)
            intervals.append((pod, placed + duration))
        store = WindowScan()
        for sample in SeriesStore(ledger.pods, period).samples():
            store.append(sample)
        finishes = sorted(intervals, key=lambda p: p[1])
        done = 0
        for now in sorted(queries):
            while done < len(finishes) and finishes[done][1] <= now:
                ledger.finish(*finishes[done])
                done += 1
            want = window_of(store, now, window, ["n1", "n2"])
            ledger.advance(now)
            assert measured(ledger) == want
            assert ledger.fresh(now) == want

