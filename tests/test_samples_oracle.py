"""`samples.csv` is derived data: the samples file of every run directory
a sweep writes has the bytes rebuilt here from the run's `jobs.csv`, its
`outcomes.csv` and the probe period alone.

The derivation is written out below rather than taken from the package's
ledger, so it checks the ledger's pod intervals against the outcomes:
- only a completed job has a pod; a killed or unfinished job has none;
- the probes sample a pod at every multiple of the probe period P strictly
  between its start and its finish, from `first` = (start // P + 1) * P
  through `last` = (finish - 1) // P * P;
- an enclave job reports its actual pages as `epc_pages` and its requested
  memory as `std_bytes`; a standard job reports its actual memory as
  `std_bytes`;
- the rows run in time order, each probe tick in (node, pod) order, pages
  before bytes.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from epcsched import experiment
from epcsched.synthetic import bundled_trace_path
from epcsched.trace import ScalingConfig

MIB = 1 << 20


def rebuilt_samples(run: Path, period: int) -> bytes:
    """The samples file of a run directory, from its jobs and outcomes."""
    with open(run / "jobs.csv", newline="", encoding="utf-8") as fh:
        jobs = {job["job_id"]: job for job in csv.DictReader(fh)}
    rows = []
    with open(run / "outcomes.csv", newline="", encoding="utf-8") as fh:
        for outcome in csv.DictReader(fh):
            if outcome["status"] != "Completed":
                continue
            job = jobs[outcome["job_id"]]
            if job["kind"] == "standard":
                values = [("std_bytes", job["actual_mem"])]
            else:
                values = [("epc_pages", job["actual_epc_pages"]),
                          ("std_bytes", job["requested_mem"])]
            first = (int(outcome["start_ms"]) // period + 1) * period
            last = (int(outcome["finish_ms"]) - 1) // period * period
            # (time, node, pod, metric) is unique: values are never compared
            rows += [(t, outcome["node_id"], outcome["job_id"], metric, value)
                     for t in range(first, last + 1, period)
                     for metric, value in values]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("time_ms", "node", "pod", "metric", "value"))
    writer.writerows(sorted(rows))
    return out.getvalue().encode("utf-8")


def check_every_run(root: Path, period: int) -> set[str]:
    """Assert that every run directory under root holds the rebuilt samples
    file; the job statuses the runs reached."""
    runs = sorted(p for p in root.iterdir() if p.is_dir())
    assert runs
    statuses = set()
    for run in runs:
        assert (run / "samples.csv").read_bytes() == rebuilt_samples(
            run, period), run.name
        with open(run / "outcomes.csv", newline="", encoding="utf-8") as fh:
            statuses |= {row["status"] for row in csv.DictReader(fh)}
    return statuses


def test_every_run_of_the_bundled_sweep(tmp_path):
    # The 16 points of the benchmark's bundled sweep, malicious jobs and
    # enforcement on, at the default probe period.
    cfg = experiment.ExperimentConfig(
        trace_file=str(bundled_trace_path()),
        scaling=ScalingConfig(rng_seed=140051),
        epc_usable_sweep=(32 * MIB, 64 * MIB, 128 * MIB, 256 * MIB),
        sgx_fraction_sweep=(0.25, 0.5, 0.75, 1.0),
        malicious=experiment.MaliciousConfig(n=2), enforce_limits=True,
        output_dir=str(tmp_path / "out"))
    root = experiment.run_experiment(cfg)
    assert len(list(root.iterdir())) == 16 + 1  # the runs and the echo
    assert "Killed" in check_every_run(root, cfg.probe_period_ms)


# One plain node and one enclave node.  At every fraction and swept size,
# "small" fits and completes, and "huge" fits no node and ends unfinished.
CLUSTER = [{"node_id": "n1", "std_capacity": "16GiB"},
           {"node_id": "s1", "std_capacity": "4GiB", "epc_total": "128MiB",
            "epc_usable": "64MiB"}]

# Times in whole milliseconds: jobs start and finish off the probe ticks as
# well as on them.
_MS = st.integers(0, 90_000)
_FRACTION = st.integers(0, 400).map(lambda f: f / 1000)
_TRACE = st.lists(st.tuples(_MS, _MS.map(lambda ms: ms + 1), _FRACTION,
                            _FRACTION), min_size=1, max_size=8)


@settings(max_examples=25, deadline=None)
@given(trace=_TRACE,
       probe_period_ms=st.sampled_from([1_000, 3_000, 7_000, 10_000, 15_000]),
       extra_window_ms=st.integers(1, 20_000),
       scheduler_period_ms=st.sampled_from([1_000, 5_000]))
def test_every_run_of_small_sweeps(trace, probe_period_ms, extra_window_ms,
                                   scheduler_period_ms):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with open(tmp / "trace.csv", "w", encoding="utf-8") as fh:
            fh.write("job_id,submit_s,duration_s,assigned_mem_frac,"
                     "max_mem_frac\n")
            for i, (submit, duration, assigned, used) in enumerate(trace):
                fh.write(f"j{i},{submit / 1000},{duration / 1000},"
                         f"{assigned},{used}\n")
            fh.write("small,0,5,0.1,0.05\nhuge,0.5,10,1.0,1.0\n")
        (tmp / "cluster.json").write_text(json.dumps(CLUSTER))
        cfg = experiment.ExperimentConfig(
            trace_file=str(tmp / "trace.csv"),
            cluster_file=str(tmp / "cluster.json"),
            scaling=ScalingConfig(rng_seed=7),
            epc_usable_sweep=(32 * MIB, 64 * MIB),
            sgx_fraction_sweep=(0.5, 1.0),
            malicious=experiment.MaliciousConfig(n=1), enforce_limits=True,
            scheduler_period_ms=scheduler_period_ms,
            probe_period_ms=probe_period_ms,
            window_ms=probe_period_ms + extra_window_ms,
            output_dir=str(tmp / "out"))
        root = experiment.run_experiment(cfg)
        statuses = check_every_run(root, probe_period_ms)
        assert {"Completed", "Killed", "Unfinished"} <= statuses
