"""Complexity budgets as deterministic tests: each layer's cost model,
stated as a bound on counted operations per unit of work, not on seconds.

- The functions that build records run with the cyclic collector paused:
  no collection starts inside them, and they leave no cyclic garbage behind.
- A replay asks its placement policy at most once per job plus once per
  park, and exactly once per job while a job no node can hold stays
  parked; it adds each pod interval to the usage ledger exactly once and
  takes it off at most once.  The grid spans 700 and 7k jobs, 4 and 64
  nodes, and both policies.
- A sweep materializes the trace once per distinct fraction and injects the
  malicious jobs once per point; `figure_datasets` reads each run file at
  most once.
"""

import csv
import gc
import gzip
from collections import Counter
from pathlib import Path

import pytest

from epcsched import experiment, metrics, report, scheduler, synthetic, trace
from epcsched.cluster import EpcModel, NodeSpec, default_cluster
from epcsched.engine import JobOutcome, JobStatus, SimConfig, run
from epcsched.trace import JobKind, JobSpec, RawJobRecord, ScalingConfig

MIB = 1024 ** 2
GIB = 1024 ** 3

# Records per input: several times the collector's default young
# generation threshold (700), so each function, unpaused, collects.
_N = 5_000


@pytest.fixture(scope="module")
def paused_calls(tmp_path_factory):
    """(function, its arguments) for every paused function, on inputs of
    _N records."""
    tmp = tmp_path_factory.mktemp("paused")
    records = [RawJobRecord(f"j{i}", float(i), 10.0 + i % 300,
                            (1 + i % 300) / 1000, (1 + i % 200) / 1000)
               for i in range(_N)]
    trace.write_canonical_csv(records, tmp / "trace.csv")

    for table in ("task_events", "task_usage"):
        (tmp / "borg" / table).mkdir(parents=True)
    with gzip.open(tmp / "borg" / "task_events" / "part-00000.csv.gz", "wt",
                   newline="") as fh:
        csv.writer(fh).writerows(
            [str(i * 1_000_000), "", "7", str(i), "", etype, "", "", "", "",
             "0.25"] for i in range(_N) for etype in ("0", "1", "4"))
    with gzip.open(tmp / "borg" / "task_usage" / "part-00000.csv.gz", "wt",
                   newline="") as fh:
        csv.writer(fh).writerows(["", "", "7", str(i)] + [""] * 6 + ["0.5"]
                                 for i in range(_N))

    scaling = ScalingConfig(sgx_fraction=0.5, rng_seed=7)
    trace.write_jobs_csv(trace.materialize(records, scaling), tmp / "jobs.csv")
    report.write_outcomes_csv(
        [JobOutcome(f"j{i}", JobKind.STANDARD, i, i + 1, i + 2,
                    JobStatus.COMPLETED, "n1", 0, 0) for i in range(_N)],
        tmp / "outcomes.csv")
    report.write_pending_csv([(i * 1_000, i) for i in range(_N)],
                             tmp / "pending.csv")
    return {
        "parse_canonical_csv": (trace.parse_canonical_csv,
                                (tmp / "trace.csv",)),
        "parse_borg_tables": (trace.parse_borg_tables, (tmp / "borg",)),
        "materialize": (trace.materialize, (records, scaling)),
        "read_jobs_csv": (trace.read_jobs_csv, (tmp / "jobs.csv",)),
        "read_outcomes_csv": (report.read_outcomes_csv,
                              (tmp / "outcomes.csv",)),
        "read_pending_csv": (report.read_pending_csv, (tmp / "pending.csv",)),
        "synthetic_trace": (synthetic.synthetic_trace, (_N,)),
    }


_PAUSED = ["parse_canonical_csv", "parse_borg_tables", "materialize",
           "read_jobs_csv", "read_outcomes_csv", "read_pending_csv",
           "synthetic_trace"]


def _collections(fn, args) -> int:
    """Collections the cyclic collector starts during fn(*args), with the
    collector on at entry."""
    starts = []

    def started(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(started)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(started)
    return len(starts)


@pytest.mark.parametrize("name", _PAUSED)
def test_a_paused_function_starts_no_collection(paused_calls, name):
    fn, args = paused_calls[name]
    assert fn.__name__ == name
    # The input is large enough that the function, unpaused, collects.
    assert _collections(fn.__wrapped__, args) > 0
    assert _collections(fn, args) == 0
    assert gc.isenabled()


@pytest.mark.parametrize("name", _PAUSED)
def test_a_paused_function_leaves_no_cyclic_garbage(paused_calls, name):
    # Everything such a function drops is freed by reference counting, so
    # with the collector off a collection afterwards finds nothing.
    fn, args = paused_calls[name]
    gc.collect()
    gc.disable()
    try:
        built = fn(*args)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert len(built) == _N
    assert unreachable == 0
    assert gc.garbage == []


def _wide_cluster(n_nodes: int) -> list[NodeSpec]:
    """Half large standard nodes, half small enclave nodes, as in
    `default_cluster`."""
    half = n_nodes // 2
    return ([NodeSpec(f"node-{i}", std_capacity=64 * GIB)
             for i in range(half)]
            + [NodeSpec(f"sgx-{i}", std_capacity=8 * GIB, epc=EpcModel())
               for i in range(half)])


@pytest.fixture(scope="module")
def replay_jobs():
    """The bundled 700-job trace and 7k synthetic jobs at its arrival
    density (700 an hour), half of them enclave jobs."""
    scaling = ScalingConfig(sgx_fraction=0.5)
    return {
        700: trace.materialize(synthetic.load_bundled_trace(), scaling),
        7_000: trace.materialize(
            synthetic.synthetic_trace(n_jobs=7_000, span_s=36_000), scaling)}


@pytest.mark.parametrize("hopeless", [False, True])
@pytest.mark.parametrize("policy", sorted(scheduler.POLICIES))
@pytest.mark.parametrize("n_nodes", [4, 64])
@pytest.mark.parametrize("n_jobs", [700, 7_000])
def test_replay_budgets(monkeypatch, replay_jobs, n_jobs, n_nodes, policy,
                        hopeless):
    calls = Counter()
    select = scheduler.POLICIES[policy]

    def counted_select(job, cluster):
        calls["select"] += 1
        return select(job, cluster)

    park = scheduler.PendingQueue.park

    def counted_park(queue, entries):
        calls["parks"] += len(entries)
        return park(queue, entries)

    count = metrics._count

    def counted_count(node, pod, sign):
        calls["ledger"] += 1
        calls[f"ledger {sign:+d}"] += 1
        return count(node, pod, sign)

    monkeypatch.setitem(scheduler.POLICIES, policy, counted_select)
    monkeypatch.setattr(scheduler.PendingQueue, "park", counted_park)
    monkeypatch.setattr(metrics, "_count", counted_count)
    nodes = default_cluster() if n_nodes == 4 else _wide_cluster(n_nodes)
    assert len(nodes) == n_nodes
    replayed = replay_jobs[n_jobs]
    if hopeless:
        # A standard job no node can hold, first in the queue: it fails its
        # first walk and stays parked, so every later walk asks the policy
        # only about jobs that fit.
        replayed = [JobSpec("hopeless", JobKind.STANDARD, 0, 1_000, 100 * GIB,
                            100 * GIB, 0, 0), *replayed]
    result = run(replayed, nodes, SimConfig(policy=policy))

    jobs, intervals = len(replayed), len(result.store.pods)
    assert len(result.outcomes) == jobs == n_jobs + hopeless
    if n_nodes == 4:
        assert calls["parks"] > 0  # the budget is taken under contention
    assert calls["select"] <= jobs + calls["parks"], calls
    if hopeless:
        assert calls["select"] == jobs, calls
    assert 0 < calls["ledger"] <= 2 * intervals, (calls, intervals)
    # each sampled pod is added once and taken off at most once
    assert calls["ledger +1"] == intervals, (calls, intervals)
    assert calls["ledger -1"] <= intervals, (calls, intervals)


def _counting(monkeypatch, owner, name: str, calls: Counter, key) -> None:
    """Replace owner.name with a wrapper counting calls[key(args)]."""
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[key(args)] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """A 2 x 2 sweep (two usable sizes, two fractions) of 40 bundled jobs,
    with malicious jobs, and its artifact root."""
    tmp = tmp_path_factory.mktemp("sweep")
    trace.write_canonical_csv(synthetic.load_bundled_trace()[:40],
                              tmp / "trace.csv")
    return experiment.ExperimentConfig(
        trace_file=str(tmp / "trace.csv"), epc_usable_sweep=(32 * MIB, 64 * MIB),
        sgx_fraction_sweep=(0.5, 1.0),
        malicious=experiment.MaliciousConfig(n=1),
        output_dir=str(tmp / "out"))


def test_a_sweep_materializes_once_per_fraction(monkeypatch, swept):
    calls = Counter()
    _counting(monkeypatch, experiment, "materialize", calls,
              lambda args: ("materialize", args[1].sgx_fraction))
    _counting(monkeypatch, experiment, "inject_malicious", calls,
              lambda args: "inject_malicious")
    _counting(monkeypatch, experiment, "run_point", calls,
              lambda args: "run_point")
    experiment.run_experiment(swept)
    assert calls == {("materialize", 0.5): 1, ("materialize", 1.0): 1,
                     "inject_malicious": 4, "run_point": 4}, calls


def test_figure_datasets_read_each_run_file_at_most_once(monkeypatch, swept):
    root = experiment.run_experiment(swept)
    reads = Counter()
    for name in ("read_outcomes_csv", "read_pending_csv", "read_jobs_csv"):
        _counting(monkeypatch, report, name, reads,
                  lambda args: Path(args[0]).relative_to(root).as_posix())
    paths = report.figure_datasets(root, report.FIGURES)
    assert [p.name for p in paths] == [f"fig{f}.dat" for f in report.FIGURES]
    runs = sorted(p.name for p in root.iterdir() if p.is_dir())
    assert len(runs) == 4
    for run in runs:
        assert reads[f"{run}/{report.OUTCOMES_FILE}"] == 1
        assert reads[f"{run}/{report.PENDING_FILE}"] == 1
        assert reads[f"{run}/{report.JOBS_FILE}"] == 1  # figure 8 reads each
    assert sum(reads.values()) == 3 * len(runs), reads
