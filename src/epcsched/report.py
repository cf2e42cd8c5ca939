"""Run directories and what is made of them.  This module owns the artifact
root: every file name in it, the outcomes and pending formats, the JSON
writer, the staged write of a run directory, and the listing of a root's
runs with their label checks (the jobs and samples formats are `trace`'s and
`metrics`').  It turns the runs into statistics and plot-ready datasets.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from . import trace
from ._csvio import (TraceParseError, csv_reader, duplicate_error, gc_paused,
                     not_a_member, width_error, write_csv)
from .engine import JobOutcome, JobStatus, SimResult
from .trace import JOB_KINDS, JobKind, JobSpec, read_jobs_csv

EXPERIMENT_FILE = "experiment.json"  # the sweep's settings, at the root
OUTCOMES_FILE = "outcomes.csv"
PENDING_FILE = "pending_epc.csv"
SAMPLES_FILE = "samples.csv"
SUMMARY_FILE = "summary.json"
JOBS_FILE = "jobs.csv"
META_FILE = "meta.json"
STAGING_SUFFIX = ".tmp"  # a run directory while it is written

OUTCOMES_FIELDS = ("job_id", "kind", "submit_ms", "start_ms", "finish_ms",
                   "status", "node_id", "declared_pages", "actual_pages")
PENDING_FIELDS = ("time_ms", "pending_epc_bytes")

FIGURES = (6, 7, 8, 9, 10)

# Two-sided 95% Student t critical values, t.ppf(0.975, df) for df = 1..28,
# as float64; index df - 1.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454,
)


def write_outcomes_csv(outcomes: Iterable[JobOutcome], dest) -> None:
    # A job with no start, finish or node has None there.  `_value_` is a
    # plain attribute read, where `.value` runs a Python property and a dict
    # keyed by members the Python-level `__hash__`.
    write_csv(dest, OUTCOMES_FIELDS, (
        (job_id, kind._value_, submitted, started, finished, status._value_,
         node_id, declared, actual)
        for (job_id, kind, submitted, started, finished, status, node_id,
             declared, actual) in outcomes))


_JOB_STATUSES = {member.value: member for member in JobStatus}


@gc_paused
def read_outcomes_csv(source) -> list[JobOutcome]:
    """The outcome rows, one per job.  A row's times must fit its status: a
    completed job has submit <= start <= finish, a killed or unfinished one
    neither a start nor a finish.  Each row is checked by itself first, and
    a row with several faults names the first in field order; then a job id
    seen before is an error naming both lines."""
    outcomes: list[JobOutcome] = []
    seen: dict[str, int] = {}
    # The kind and the status by inline dict lookups, and the tuple built
    # without the named tuple's Python-level `__new__`: no Python call per
    # field of a row.
    kinds, statuses = JOB_KINDS, _JOB_STATUSES
    completed, new = JobStatus.COMPLETED, tuple.__new__
    with csv_reader(source, OUTCOMES_FIELDS) as reader:
        for row in filter(None, reader):
            if len(row) != 9:
                raise width_error(OUTCOMES_FIELDS, row)
            (job_id, kind, submitted, started, finished, status, node_id,
             declared, actual) = row
            try:
                kind = kinds[kind]
            except KeyError:
                raise not_a_member(JobKind, kind) from None
            submitted = int(submitted)
            started = int(started) if started else None
            finished = int(finished) if finished else None
            try:
                status = statuses[status]
            except KeyError:
                raise not_a_member(JobStatus, status) from None
            if status is completed:
                if started is None or finished is None:
                    raise ValueError(f"{status.value} job {job_id!r} needs a "
                                     "start_ms and a finish_ms")
                if not submitted <= started <= finished:
                    raise ValueError(f"job {job_id!r}: expected submit_ms <= "
                                     f"start_ms <= finish_ms, got {submitted}, "
                                     f"{started}, {finished}")
            elif started is not None or finished is not None:
                raise ValueError(f"{status.value} job {job_id!r} has a "
                                 "start_ms or a finish_ms")
            outcome = new(JobOutcome, (job_id, kind, submitted, started,
                                       finished, status, node_id or None,
                                       int(declared), int(actual)))
            if job_id in seen:
                raise duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            outcomes.append(outcome)
    return outcomes


def write_pending_csv(series: Iterable[tuple[int, int]], dest) -> None:
    # unpacked, so an item that is not a pair is still an error
    write_csv(dest, PENDING_FIELDS,
              ((time_ms, backlog) for time_ms, backlog in series))


@gc_paused
def read_pending_csv(source) -> list[tuple[int, int]]:
    series: list[tuple[int, int]] = []
    with csv_reader(source, PENDING_FIELDS) as reader:
        for row in filter(None, reader):
            if len(row) != 2:
                raise width_error(PENDING_FIELDS, row)
            try:
                series.append((int(row[0]), int(row[1])))
            except ValueError:
                raise ValueError(f"expected integers {','.join(PENDING_FIELDS)}"
                                 f", got {','.join(row)!r}") from None
    return series


def write_json(path: Path, data: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_run_dir(out_root: Path, label: str, jobs: Iterable[JobSpec],
                  result: SimResult, meta: dict) -> None:
    """Write the run directory `out_root / label`, whose `meta.json` is
    `meta` with the label, staged and renamed into place when complete."""
    staging = out_root / (label + STAGING_SUFFIX)
    final = out_root / label
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        # looked up in `trace`, where a per-layer split wraps it by name
        trace.write_jobs_csv(jobs, staging / JOBS_FILE)
        write_outcomes_csv(result.outcomes, staging / OUTCOMES_FILE)
        write_pending_csv(result.pending_epc, staging / PENDING_FILE)
        result.store.write_csv(staging / SAMPLES_FILE)
        write_json(staging / SUMMARY_FILE, summary(result.outcomes))
        write_json(staging / META_FILE, {"label": label, **meta})
        if final.exists():
            shutil.rmtree(final)
        os.replace(staging, final)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def summary(outcomes: Sequence[JobOutcome]) -> dict:
    """Headline numbers of a run; every value is recomputable from the
    outcome rows alone."""
    completed = [o for o in outcomes if o.status is JobStatus.COMPLETED]
    started = [o for o in outcomes if o.started_ms is not None]
    return {
        "jobs": len(outcomes),
        "completed": len(completed),
        "killed": sum(o.status is JobStatus.KILLED for o in outcomes),
        "unfinished": sum(o.status is JobStatus.UNFINISHED for o in outcomes),
        "makespan_ms": max((o.finished_ms for o in completed), default=0),
        "total_waiting_ms": sum(o.waiting_ms for o in started),
        "total_turnaround_ms": turnaround_sum(outcomes),
    }


def waiting_cdf(outcomes: Sequence[JobOutcome]) -> list[tuple[int, float]]:
    """Right-continuous empirical CDF of waiting times over jobs that
    actually started.  Killed and unfinished jobs never started, so they are
    not part of the curve (the summary carries their counts)."""
    waits = sorted(o.waiting_ms for o in outcomes if o.started_ms is not None)
    if not waits:
        return []
    n = len(waits)
    points = []
    seen = 0
    for value, group in groupby(waits):
        seen += sum(1 for _ in group)
        points.append((value, seen / n))
    return points


def turnaround_sum(outcomes: Sequence[JobOutcome]) -> int:
    """Total submission-to-completion time across completed jobs."""
    return sum(o.turnaround_ms for o in outcomes
               if o.status is JobStatus.COMPLETED)


def _pairwise_sum(xs: Sequence[float], lo: int, hi: int) -> float:
    """numpy's pairwise sum of xs[lo:hi], in its order: a plain loop below 8
    elements, 8 strided accumulators up to 128, and above that the two
    halves, split at half the length rounded down to a multiple of 8."""
    n = hi - lo
    if n < 8:
        total = 0.0
        for i in range(lo, hi):
            total += xs[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        end = hi - n % 8
        for i in range(lo + 8, end, 8):
            r0 += xs[i]
            r1 += xs[i + 1]
            r2 += xs[i + 2]
            r3 += xs[i + 3]
            r4 += xs[i + 4]
            r5 += xs[i + 5]
            r6 += xs[i + 6]
            r7 += xs[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, hi):
            total += xs[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, lo + half) + _pairwise_sum(xs, lo + half, hi)


def _mean(values: Sequence[int]) -> float:
    """`np.mean(values)` of a non-empty list of ints, bit for bit.

    The exactness argument, for this and `_std`: every step is one IEEE-754
    double operation that numpy makes too, in numpy's order, and Python
    floats are the same doubles with the same rounding.  `np.mean` of int64
    sums in float64: it casts the ints (rounded to nearest, as `float()`
    does) in buffers of 8,192 elements and adds each buffer's
    `_pairwise_sum` to a total that starts at 0.0.  It divides that total
    by n.  `tests/test_report.py` checks both against numpy at every block
    edge.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    total = 0.0
    for lo in range(0, n, 8192):
        total += _pairwise_sum(xs, lo, min(lo + 8192, n))
    return total / n


def _std(values: Sequence[int], mean: float) -> float:
    """`np.std(values, ddof=1)` of a list of at least two ints, bit for bit,
    given their `_mean`.  numpy squares each `float(v) - mean`, sums the
    squares, which are float64 already and so form one unbuffered pairwise
    sum, divides by n - 1 and takes the square root."""
    deviations = [float(v) - mean for v in values]
    squares = [d * d for d in deviations]
    return math.sqrt(_pairwise_sum(squares, 0, len(squares))
                     / (len(squares) - 1))


def mean_waiting(outcomes: Sequence[JobOutcome]) -> float | None:
    waits = [o.waiting_ms for o in outcomes if o.started_ms is not None]
    if not waits:
        return None
    return _mean(waits)


@dataclass(frozen=True)
class BucketStat:
    lo: int
    hi: int
    count: int
    mean_ms: float | None
    ci95_ms: float | None


def _bucket_stats(pairs: list[tuple[int, int]],
                  edges: Sequence[int]) -> list[BucketStat]:
    out = []
    for lo, hi in zip(edges, edges[1:]):
        waits = [w for size, w in pairs if lo <= size < hi]
        if not waits:
            out.append(BucketStat(lo, hi, 0, None, None))
            continue
        mean = _mean(waits)
        ci = None
        if len(waits) >= 2:
            spread = _std(waits, mean)
            n = len(waits)
            # t critical value below 30 samples, normal approximation above
            crit = _T975[n - 2] if n < 30 else 1.959963984540054
            ci = crit * spread / math.sqrt(n)
        out.append(BucketStat(lo, hi, len(waits), mean, ci))
    return out


def power_of_two_edges(values: Iterable[int]) -> list[int]:
    """Default bucket boundaries: consecutive powers of two covering the
    positive values, after a leading 0 when a value is zero, so that its
    [0, lo) bucket holds the zero sizes."""
    values = list(values)
    positive = [v for v in values if v > 0]
    edges = [0] if 0 in values else []
    if not positive:
        return edges + [1, 2]
    lo = 1 << max(0, min(positive).bit_length() - 1)
    hi = 1 << max(positive).bit_length()
    edge = lo
    while edge <= hi:
        edges.append(edge)
        edge *= 2
    return edges


def waiting_by_memory(outcomes: Sequence[JobOutcome],
                      jobs_by_id: Mapping[str, JobSpec],
                      sgx_edges: Sequence[int] | None = None,
                      std_edges: Sequence[int] | None = None,
                      ) -> dict[str, list[BucketStat]]:
    """Mean waiting time (with a 95% confidence interval) bucketed by the
    memory each started job requested.

    Enclave jobs and standard jobs get separate bucket edges because their
    request sizes live on very different scales (a dual-axis plot downstream).
    """
    sgx_pairs: list[tuple[int, int]] = []
    std_pairs: list[tuple[int, int]] = []
    for o in outcomes:
        if o.started_ms is None:
            continue
        job = jobs_by_id[o.job_id]
        pair = (job.requested_mem, o.waiting_ms)
        (sgx_pairs if job.kind.uses_epc else std_pairs).append(pair)
    if sgx_edges is None:
        sgx_edges = power_of_two_edges(size for size, _ in sgx_pairs)
    if std_edges is None:
        std_edges = power_of_two_edges(size for size, _ in std_pairs)
    return {"sgx": _bucket_stats(sgx_pairs, sgx_edges),
            "std": _bucket_stats(std_pairs, std_edges)}


def _run_dirs(root: Path) -> list[tuple[Path, str]]:
    """Finished run directories with their labels, by name; a staging
    directory left by a killed run is not one.  A label is one word, since
    it is the first field of the datasets' whitespace-separated rows, and
    no two runs share one, or the datasets would mix them."""
    runs = []
    seen: dict[str, Path] = {}
    for meta_path in sorted(root.glob("*/" + META_FILE)):
        if meta_path.parent.name.endswith(STAGING_SUFFIX):
            continue
        with open(meta_path, encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:
                raise TraceParseError(f"{meta_path}: {exc}") from None
        if not isinstance(meta, dict) or not isinstance(meta.get("label"), str):
            raise TraceParseError(
                f"{meta_path}: expected an object with a string label")
        label = meta["label"]
        if label.split() != [label]:
            raise TraceParseError(f"{meta_path}: label {label!r} is empty or "
                                  "holds whitespace")
        if label in seen:
            raise TraceParseError(f"{meta_path}: label {label!r} is also the "
                                  f"label of {seen[label]}")
        seen[label] = meta_path
        runs.append((meta_path.parent, label))
    return runs


def _fmt(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


_HEADERS = {
    6: "# label time_ms pending_epc_bytes",
    7: "# label waiting_ms cumulative_fraction",
    8: "# label class bucket_lo bucket_hi count mean_waiting_ms ci95_ms",
    9: "# label waiting_ms cumulative_fraction",
    10: "# label total_turnaround_ms",
}


def figure_dataset(artifact_dir, figure: int, dest=None) -> Path:
    """Emit one plot-ready dataset from an experiment directory.

    6: queued protected-memory backlog over time, one series per run.
    7/9: waiting-time CDF per run (9 is the enforcement comparison; same
    columns, kept separate so both sweeps can live in one directory).
    8: mean waiting with 95% CI per requested-memory bucket, per job class.
    10: total turnaround per run plus the workload's inherent run-time sum:
    the durations in `jobs.csv` of the first run in label order, which
    count a malicious point's injected jobs, though they are killed at
    initialization and never run.
    """
    (path,) = _write_figures(artifact_dir, {figure: dest})
    return path


def figure_datasets(artifact_dir, figures: Iterable[int] = FIGURES
                    ) -> list[Path]:
    """`figure_dataset` for each figure, written to fig<N>.dat in the
    directory, from one listing of the runs and at most one read of each
    run's files.  Returns the paths in the order of `figures`; a figure
    asked for twice is written once.  A fault in any run's files is raised
    before any dataset is written."""
    return _write_figures(artifact_dir, dict.fromkeys(figures))


def _write_figures(artifact_dir, dests: Mapping[int, object]) -> list[Path]:
    """Write each figure of `dests` to its destination (None: fig<N>.dat in
    the directory).  The runs are walked once, in label order, and each run
    reads only the files its figures need, each once, in the order one
    figure alone would read them: pending_epc.csv, outcomes.csv, jobs.csv."""
    for figure in dests:
        if figure not in FIGURES:
            raise ValueError(f"unknown figure {figure}; pick one of {FIGURES}")
    root = Path(artifact_dir)
    runs = _run_dirs(root)
    if not runs:
        raise FileNotFoundError(f"no run directories under {root}")
    lines = {figure: [_HEADERS[figure]] for figure in dests}
    cdfs = [lines[figure] for figure in (7, 9) if figure in lines]
    workload_ms = None
    for run_dir, label in runs:
        if 6 in lines:
            lines[6] += [f"{label} {time_ms} {backlog}" for time_ms, backlog
                         in read_pending_csv(run_dir / PENDING_FILE)]
        if lines.keys() - {6}:
            outcomes = read_outcomes_csv(run_dir / OUTCOMES_FILE)
        if cdfs:
            cdf = [f"{label} {wait_ms} {_fmt(fraction)}"
                   for wait_ms, fraction in waiting_cdf(outcomes)]
            for figure_lines in cdfs:
                figure_lines += cdf
        jobs = None
        if 8 in lines:
            jobs = read_jobs_csv(run_dir / JOBS_FILE)
            jobs_by_id = {j.job_id: j for j in jobs}
            for o in outcomes:
                if o.job_id not in jobs_by_id:
                    raise TraceParseError(f"{run_dir / JOBS_FILE}: no job "
                                          f"{o.job_id!r} of {OUTCOMES_FILE}")
            table = waiting_by_memory(outcomes, jobs_by_id)
            for klass, buckets in sorted(table.items()):
                for b in buckets:
                    lines[8].append(
                        f"{label} {klass} {b.lo} {b.hi} {b.count} "
                        f"{_fmt(b.mean_ms)} {_fmt(b.ci95_ms)}")
        if 10 in lines:
            lines[10].append(f"{label} {turnaround_sum(outcomes)}")
            if workload_ms is None:
                if jobs is None:
                    jobs = read_jobs_csv(run_dir / JOBS_FILE)
                workload_ms = sum(j.duration_ms for j in jobs)
    if 10 in lines:
        lines[10].append(f"workload {workload_ms or 0}")
    paths = []
    for figure, dest in dests.items():
        path = Path(dest) if dest else root / f"fig{figure}.dat"
        path.write_text("\n".join(lines[figure]) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
