"""The entry points the benchmark's per-layer split wraps by name.

`bench/layers.py` replaces these attributes from outside and counts the calls
that go through them.  A renamed entry point, or a caller that stops looking
it up by name, would read 0 in the split instead of failing, so this checks
that each exists and that a replay (or, for the artifact writers and
readers, a sweep and its figure datasets; for the ingest functions,
`epcsched scale` and a sweep) reaches each through its name.  A decorator on
an entry point must keep its name and `__wrapped__`, and sit where the
function is defined, so that every module importing it gets the same object.
"""

import gzip
import inspect
import sys
from collections import Counter

import pytest

from conftest import sgx_job, sgx_node, std_job, std_node
from epcsched import (driver, engine, experiment, metrics, report, scheduler,
                      trace)
from epcsched.cli import main
from epcsched.engine import JobStatus, SimConfig, run

TRACED = [(metrics.UsageLedger, "advance"),
          (engine, "schedule_tick"),
          (driver.DriverState, "enclave_init"),
          (driver.DriverState, "enclave_release")]

# The writers as the run-directory write looks them up, and the readers as
# the figure datasets do.
ARTIFACT_IO = [(metrics.SeriesStore, "write_csv"),
               (trace, "write_jobs_csv"),
               (report, "write_outcomes_csv"),
               (report, "write_pending_csv"),
               (report, "read_outcomes_csv"),
               (report, "read_pending_csv"),
               (report, "read_jobs_csv")]

# The ingest functions, as `trace` exposes them and as `experiment` looks
# them up.
INGEST = [(trace, "parse_canonical_csv"), (trace, "parse_borg_tables"),
          (trace, "slice_and_sample"), (experiment, "slice_and_sample"),
          (trace, "materialize"), (experiment, "materialize"),
          (trace, "inject_malicious"), (experiment, "inject_malicious"),
          (trace, "read_jobs_csv"), (trace, "write_jobs_csv")]

TRACE_CSV = ("job_id,submit_s,duration_s,assigned_mem_frac,max_mem_frac\n"
             "j1,0,30,0.2,0.15\nj2,2,40,0.1,0.1\n")


def counted(calls: Counter, label: str, fn):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(monkeypatch, targets, calls: Counter,
                label=lambda owner, name: name) -> None:
    """Replace each (owner, name) with a wrapper counting
    calls[label(owner, name)]."""
    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(calls, label(owner, name),
                                                 vars(owner)[name]))


def module_label(owner, name: str) -> str:
    """`module.name` of an entry point, as the split names its span."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{name}"


# `trace.write_jobs_csv` is artifact I/O and ingest both; it is checked once.
@pytest.mark.parametrize("owner, name",
                         list(dict.fromkeys(TRACED + ARTIFACT_IO + INGEST)))
def test_entry_point_exists(owner, name):
    assert callable(vars(owner)[name])


@pytest.mark.parametrize("owner, name", [
    (owner, name) for owner, name in dict.fromkeys(ARTIFACT_IO + INGEST)
    if inspect.ismodule(owner)])
def test_an_imported_entry_point_is_the_defined_one(owner, name):
    # A wrapper applied where a function is imported, or one that drops its
    # name, would split one function into two objects.
    fn = vars(owner)[name]
    assert fn is vars(sys.modules[fn.__module__])[name]
    assert fn.__name__ == inspect.unwrap(fn).__name__ == name


@pytest.mark.parametrize("fmt", ["canonical_csv", "borg_tables"])
def test_scale_calls_each_ingest_function_by_name(monkeypatch, tmp_path, fmt):
    calls = Counter()
    count_calls(monkeypatch, INGEST, calls, module_label)
    if fmt == "canonical_csv":
        source = tmp_path / "trace.csv"
        source.write_text(TRACE_CSV)
    else:
        source = tmp_path / "borg"
        (source / "task_events").mkdir(parents=True)
        with gzip.open(source / "task_events" / "part-00000.csv.gz",
                       "wt") as fh:
            fh.write("1000000,,42,0,,0,,,,,0.25\n2000000,,42,0,,1,,,,,\n"
                     "5000000,,42,0,,4,,,,,\n")
    out = tmp_path / "jobs.csv"
    assert main(["scale", "--in", str(source), "--format", fmt,
                 "--out", str(out), "--sgx-fraction", "0.5"]) == 0
    parser = ("trace.parse_canonical_csv" if fmt == "canonical_csv"
              else "trace.parse_borg_tables")
    assert calls == {parser: 1, "trace.slice_and_sample": 1,
                     "trace.materialize": 1, "trace.write_jobs_csv": 1}


def test_sweep_calls_each_ingest_function_by_name(monkeypatch, tmp_path):
    calls = Counter()
    count_calls(monkeypatch, INGEST, calls, module_label)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(TRACE_CSV)
    experiment.run_experiment(experiment.ExperimentConfig(
        trace_file=str(trace_path), sgx_fraction_sweep=(0.0, 1.0),
        epc_usable_sweep=(32 * 1024 ** 2, 64 * 1024 ** 2),
        malicious=experiment.MaliciousConfig(n=1),
        output_dir=str(tmp_path / "out")))
    # The sweep reads the trace once, materializes it at each of its two
    # fractions, and injects the malicious jobs and writes the jobs CSV at
    # each of its four points.
    assert calls == {"trace.parse_canonical_csv": 1,
                     "experiment.slice_and_sample": 1,
                     "experiment.materialize": 2,
                     "experiment.inject_malicious": 4,
                     "trace.write_jobs_csv": 4}, calls


def test_policy_registry():
    assert scheduler.POLICIES == {"binpack": scheduler.binpack_select,
                                  "spread": scheduler.spread_select}


@pytest.mark.parametrize("policy", sorted(scheduler.POLICIES))
def test_replay_calls_each_entry_point_by_name(monkeypatch, policy):
    calls = Counter()
    count_calls(monkeypatch, TRACED, calls)
    for key, select in list(scheduler.POLICIES.items()):
        monkeypatch.setitem(scheduler.POLICIES, key, counted(calls, key, select))
    jobs = [sgx_job("e", declared=10), std_job("s", submit_ms=1_000)]
    run(jobs, [sgx_node("s1"), std_node("n1")], SimConfig(policy=policy))
    assert all(calls[name] > 0 for _, name in TRACED), calls
    assert calls[policy] == 2, calls


def test_sweep_and_figures_call_each_artifact_function_by_name(monkeypatch,
                                                               tmp_path):
    calls = Counter()
    count_calls(monkeypatch, ARTIFACT_IO, calls)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(TRACE_CSV)
    root = experiment.run_experiment(experiment.ExperimentConfig(
        trace_file=str(trace_path), sgx_fraction_sweep=(0.0, 1.0),
        output_dir=str(tmp_path / "out")))
    for figure in report.FIGURES:
        report.figure_dataset(root, figure)
    assert all(calls[name] > 0 for _, name in ARTIFACT_IO), calls


def test_heap_pops_once_per_completed_job(monkeypatch):
    # The engine's heap holds finishes only: ticks follow the scheduler
    # clock, and a killed job never finishes.
    calls = Counter()
    monkeypatch.setattr(engine.heapq, "heappop",
                        counted(calls, "heappop", engine.heapq.heappop))
    jobs = [sgx_job("e", declared=10), sgx_job("liar", declared=1, actual=100),
            std_job("s", submit_ms=1_000), std_job("t", submit_ms=30_000)]
    result = run(jobs, [sgx_node("s1"), std_node("n1")])
    statuses = Counter(o.status for o in result.outcomes)
    assert statuses == {JobStatus.COMPLETED: 3, JobStatus.KILLED: 1}
    assert calls["heappop"] == 3


def test_the_bench_reads_the_run_store_it_writes(monkeypatch, tmp_path):
    """The bench counts `len(result.store)` and each sample's node, pod and
    metric from `result.store.samples()`, and times the samples file by
    `SeriesStore.write_csv`: the sweep writes each run's store through it."""
    result = run([sgx_job("e", declared=10), std_job("s", submit_ms=1_000)],
                 [sgx_node("s1"), std_node("n1")])
    stores = [result.store]
    write = vars(metrics.SeriesStore)["write_csv"]

    def writing(store, dest):
        stores.append(store)
        return write(store, dest)

    monkeypatch.setattr(metrics.SeriesStore, "write_csv", writing)
    trace = tmp_path / "trace.csv"
    trace.write_text("job_id,submit_s,duration_s,assigned_mem_frac,"
                     "max_mem_frac\nj1,0,30,0.2,0.15\nj2,2,40,0.1,0.1\n")
    experiment.run_experiment(experiment.ExperimentConfig(
        trace_file=str(trace), sgx_fraction_sweep=(0.0, 1.0),
        output_dir=str(tmp_path / "out")))
    assert len(stores) == 3  # the replay's, then one per sweep point
    for store in stores:
        assert type(store) is metrics.SeriesStore
        samples = list(store.samples())
        assert len(store) == len(samples) > 0
        assert all(isinstance(s.node_id, str) and isinstance(s.pod_id, str)
                   and s.metric in (metrics.METRIC_EPC_PAGES,
                                    metrics.METRIC_STD_BYTES)
                   for s in samples)
