"""Workload ingestion: parse normalized job traces, slice them, and scale them
into concrete job specifications.

Trace records describe jobs by memory *fractions* of whatever machine they
originally ran on.  Materialization multiplies those fractions against target
capacities (a large standard-memory node, or a small protected-memory budget
for enclave-backed jobs) and tags a seeded subset of records as enclave jobs.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from ._units import GIB, PAGE_SIZE

log = logging.getLogger(__name__)

DEFAULT_STD_MULTIPLIER = 32 * GIB
DEFAULT_SGX_MULTIPLIER = 98_041_856  # 93.5 MiB of protected memory

CANONICAL_FIELDS = ("job_id", "submit_s", "duration_s",
                    "assigned_mem_frac", "max_mem_frac")
JOBS_FIELDS = ("job_id", "kind", "submit_ms", "duration_ms", "requested_mem",
               "actual_mem", "declared_epc_pages", "actual_epc_pages")


class TraceParseError(ValueError):
    """Input violates the trace contract.  Carries the 1-based source line;
    the message also names the file, when there is one."""

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


class JobKind(Enum):
    STANDARD = "standard"
    SGX = "sgx"
    MALICIOUS_SGX = "malicious_sgx"

    def __init__(self, value: str):
        # A plain member attribute: the scheduler reads it for every queued
        # job on every tick.
        self.uses_epc = value != "standard"


def _member_of(enum: type[Enum]) -> Callable[[str], Enum]:
    """A reader's decoder of one enum's values: the member by one dict
    lookup, where calling the enum costs several Python calls per row.  A
    value no member has raises the ValueError calling the enum raises."""
    members = {member.value: member for member in enum}

    def member_of(value: str) -> Enum:
        try:
            return members[value]
        except KeyError:
            raise ValueError(f"{value!r} is not a valid "
                             f"{enum.__qualname__}") from None
    return member_of


_job_kind = _member_of(JobKind)


def _slot_setters(cls) -> tuple:
    """The `__set__` of each slot of a slotted dataclass, in field order: a
    frozen record's own `__init__` stores through these, where the generated
    one calls `object.__setattr__` once per field.  `cls` must be the class
    that `dataclass(slots=True)` returned, not the one its body defined."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


@dataclass(frozen=True, slots=True, init=False)
class RawJobRecord:
    """One normalized trace row.  Memory is a fraction of the source machine."""

    job_id: str
    submit_s: float
    duration_s: float
    assigned_mem_frac: float
    max_mem_frac: float

    def __init__(self, job_id: str, submit_s: float, duration_s: float,
                 assigned_mem_frac: float, max_mem_frac: float):
        if not job_id:
            raise ValueError("empty job_id")
        if not -math.inf < submit_s < math.inf:
            raise ValueError(f"non-finite submit_s for {job_id}")
        if not -math.inf < duration_s < math.inf:
            raise ValueError(f"non-finite duration_s for {job_id}")
        if submit_s < 0:
            raise ValueError(f"negative submit time for {job_id}")
        if duration_s < 0:
            raise ValueError(f"negative duration for {job_id}")
        if not 0.0 <= assigned_mem_frac <= 1.0:
            raise ValueError(f"assigned_mem_frac={assigned_mem_frac} "
                             f"outside [0, 1] for {job_id}")
        if not 0.0 <= max_mem_frac <= 1.0:
            raise ValueError(f"max_mem_frac={max_mem_frac} "
                             f"outside [0, 1] for {job_id}")
        _set_raw_job_id(self, job_id)
        _set_raw_submit_s(self, submit_s)
        _set_raw_duration_s(self, duration_s)
        _set_raw_assigned_mem_frac(self, assigned_mem_frac)
        _set_raw_max_mem_frac(self, max_mem_frac)


(_set_raw_job_id, _set_raw_submit_s, _set_raw_duration_s,
 _set_raw_assigned_mem_frac,
 _set_raw_max_mem_frac) = _slot_setters(RawJobRecord)


@dataclass(frozen=True, slots=True, init=False)
class JobSpec:
    """A runnable job with concrete sizes.  All times are integer milliseconds.

    Standard jobs carry zero page counts.  Enclave jobs declare a page limit
    up front (what the scheduler admits against) which may differ from the
    pages they actually allocate at startup.
    """

    job_id: str
    kind: JobKind
    submit_ms: int
    duration_ms: int
    requested_mem: int        # advertised standard-memory request, bytes
    actual_mem: int           # memory really touched while running, bytes
    declared_epc_pages: int   # protected-memory limit announced to the cluster
    actual_epc_pages: int     # protected pages allocated at enclave startup

    def __init__(self, job_id: str, kind: JobKind, submit_ms: int,
                 duration_ms: int, requested_mem: int, actual_mem: int,
                 declared_epc_pages: int, actual_epc_pages: int):
        if submit_ms < 0 or duration_ms < 0:
            raise ValueError(f"negative time field for {job_id}")
        if (requested_mem < 0 or actual_mem < 0
                or declared_epc_pages < 0 or actual_epc_pages < 0):
            raise ValueError(f"negative size field for {job_id}")
        if kind.uses_epc:
            if declared_epc_pages < 1:
                raise ValueError(
                    f"enclave job {job_id} must declare at least one page")
        elif declared_epc_pages or actual_epc_pages:
            raise ValueError(
                f"standard job {job_id} cannot hold protected pages")
        _set_spec_job_id(self, job_id)
        _set_spec_kind(self, kind)
        _set_spec_submit_ms(self, submit_ms)
        _set_spec_duration_ms(self, duration_ms)
        _set_spec_requested_mem(self, requested_mem)
        _set_spec_actual_mem(self, actual_mem)
        _set_spec_declared_epc_pages(self, declared_epc_pages)
        _set_spec_actual_epc_pages(self, actual_epc_pages)


(_set_spec_job_id, _set_spec_kind, _set_spec_submit_ms,
 _set_spec_duration_ms, _set_spec_requested_mem, _set_spec_actual_mem,
 _set_spec_declared_epc_pages,
 _set_spec_actual_epc_pages) = _slot_setters(JobSpec)


@dataclass(frozen=True)
class ScalingConfig:
    """How a raw trace becomes a workload: slice window, sampling stride,
    enclave share, and the capacity multipliers turning fractions into bytes."""

    slice_start_s: float = 0.0
    slice_end_s: float = math.inf
    sampling_stride: int = 1
    sgx_fraction: float = 0.0
    std_multiplier: int = DEFAULT_STD_MULTIPLIER
    sgx_multiplier: int = DEFAULT_SGX_MULTIPLIER
    rng_seed: int = 0

    def __post_init__(self):
        if self.slice_start_s < 0:
            raise ValueError("slice_start_s must be >= 0")
        if not self.slice_start_s < self.slice_end_s:
            raise ValueError("slice_start_s must lie below slice_end_s")
        if self.sampling_stride < 1:
            raise ValueError("sampling_stride must be >= 1")
        if not 0.0 <= self.sgx_fraction <= 1.0:
            raise ValueError("sgx_fraction must lie in [0, 1]")
        if self.std_multiplier <= 0 or self.sgx_multiplier <= 0:
            raise ValueError("capacity multipliers must be positive")
        if not 0 <= self.rng_seed < 2 ** 128:
            raise ValueError("rng_seed must lie in [0, 2**128), "
                             f"got {self.rng_seed}")


@contextmanager
def _open_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        yield io.StringIO(data)
    else:
        with open(source, "r", encoding="utf-8", newline="") as fh:
            yield fh


@contextmanager
def _open_write(dest):
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


def parse_trace(source, fmt: str = "canonical_csv") -> list[RawJobRecord]:
    """Dispatch to a trace reader.  fmt is 'canonical_csv' or 'borg_tables'."""
    if fmt == "canonical_csv":
        return parse_canonical_csv(source)
    if fmt == "borg_tables":
        return parse_borg_tables(source)
    raise ValueError(f"unknown trace format {fmt!r}")


def parse_canonical_csv(source) -> list[RawJobRecord]:
    """Read the canonical trace CSV (path or open file).

    Header and column order are fixed.  Malformed rows raise TraceParseError
    with their line number; rows with a negative duration are dropped with a
    logged diagnostic (truncated exports produce them).  Each row is checked
    by itself first, then a job id seen before is an error naming both
    lines.  Records come back sorted by submit time.
    """
    records: list[RawJobRecord] = []
    seen: dict[str, int] = {}
    with _csv_reader(source, CANONICAL_FIELDS) as reader:
        for row in reader:
            if len(row) != 5:
                if row:
                    raise _width_error(CANONICAL_FIELDS, row)
                continue
            job_id = row[0].strip()
            try:
                submit_s, duration_s, assigned, peak = map(float, row[1:])
            except ValueError:
                raise ValueError(f"non-numeric field in {row!r}") from None
            if duration_s < 0:
                log.warning("dropping job %s (line %d): negative duration %s",
                            job_id, reader.line_num, duration_s)
                continue
            record = RawJobRecord(job_id, submit_s, duration_s, assigned, peak)
            if job_id in seen:
                raise _duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            records.append(record)
    records.sort(key=attrgetter("submit_s"))
    return records


# Column indices into 2011 public cluster-trace shards.
_EVENT_TIME, _EVENT_JOB_ID, _EVENT_TASK_INDEX = 0, 2, 3
_EVENT_TYPE, _EVENT_MEM_REQUEST = 5, 10
_USAGE_JOB_ID, _USAGE_TASK_INDEX, _USAGE_MAX_MEM = 2, 3, 10

_EV_SUBMIT, _EV_SCHEDULE, _EV_FINISH = 0, 1, 4


def _shard_rows(directory: Path):
    """(shard, 1-based row number, row) for every row of every shard.  A
    shard that does not decompress or decode is a TraceParseError naming
    it."""
    for shard in sorted(directory.glob("*.csv.gz")):
        with gzip.open(shard, "rt", encoding="utf-8", newline="") as fh:
            try:
                for rowno, row in enumerate(csv.reader(fh), start=1):
                    yield shard, rowno, row
            except (UnicodeDecodeError, EOFError, gzip.BadGzipFile,
                    zlib.error) as exc:
                raise TraceParseError(f"unreadable shard: {exc}",
                                      path=str(shard)) from None


def _finite(field: str) -> float:
    value = float(field)
    if -math.inf < value < math.inf:
        return value
    raise ValueError(f"non-finite number {field.strip()!r}")


def _shard_error(shard: Path, rowno: int, row: list[str],
                 exc: Exception) -> TraceParseError:
    reason = (f"short row ({len(row)} fields)" if isinstance(exc, IndexError)
              else str(exc))
    return TraceParseError(reason, line=rowno, path=str(shard))


def parse_borg_tables(root) -> list[RawJobRecord]:
    """Adapt a directory of gzipped 2011-schema shards into canonical records.

    Expects task_events/ and task_usage/ subdirectories of *.csv.gz files.
    Each task becomes one record keyed "<job>-<task index>"; its duration runs
    from its first SCHEDULE to its FINISH event and tasks that never finish
    are dropped.  assigned_mem_frac comes from the request column of the
    submit/schedule rows, max_mem_frac from the maximum across usage rows.
    Out-of-range fractions are clamped to [0, 1]: the public trace carries a
    handful of requests above the rescaling ceiling.
    """
    root = Path(root)
    events_dir = root / "task_events"
    usage_dir = root / "task_usage"
    if not events_dir.is_dir():
        raise TraceParseError(f"missing task_events/ directory under {root}")

    submit: dict[tuple[str, str], float] = {}
    sched: dict[tuple[str, str], float] = {}
    finish: dict[tuple[str, str], float] = {}
    request: dict[tuple[str, str], float] = {}
    for shard, rowno, row in _shard_rows(events_dir):
        try:
            key = (row[_EVENT_JOB_ID], row[_EVENT_TASK_INDEX])
            etype = int(row[_EVENT_TYPE])
            t = _finite(row[_EVENT_TIME]) / 1e6  # raw timestamps are microseconds
            if etype == _EV_SUBMIT:
                submit.setdefault(key, t)
            elif etype == _EV_SCHEDULE:
                sched.setdefault(key, t)
            elif etype == _EV_FINISH:
                finish.setdefault(key, t)
            if etype in (_EV_SUBMIT, _EV_SCHEDULE) and key not in request:
                field = row[_EVENT_MEM_REQUEST].strip()
                if field:
                    request[key] = _finite(field)
        except (IndexError, ValueError) as exc:
            raise _shard_error(shard, rowno, row, exc) from None

    peak: dict[tuple[str, str], float] = {}
    if usage_dir.is_dir():
        for shard, rowno, row in _shard_rows(usage_dir):
            try:
                key = (row[_USAGE_JOB_ID], row[_USAGE_TASK_INDEX])
                field = row[_USAGE_MAX_MEM].strip()
                if field:
                    value = _finite(field)
                    if value > peak.get(key, -1.0):
                        peak[key] = value
            except (IndexError, ValueError) as exc:
                raise _shard_error(shard, rowno, row, exc) from None

    records = []
    for key, end in finish.items():
        start = sched.get(key)
        if start is None or end < start:
            continue
        records.append(RawJobRecord(
            f"{key[0]}-{key[1]}", max(0.0, submit.get(key, start)),
            end - start, min(max(request.get(key, 0.0), 0.0), 1.0),
            min(max(peak.get(key, 0.0), 0.0), 1.0)))
    records.sort(key=attrgetter("submit_s", "job_id"))
    return records


def slice_and_sample(records: Sequence[RawJobRecord],
                     cfg: ScalingConfig) -> list[RawJobRecord]:
    """Keep records submitted inside [slice_start_s, slice_end_s), re-base
    their submit times to the slice origin, then keep every stride-th one.
    A slice from 0 changes no record, so it returns the same (frozen)
    records."""
    start, end = cfg.slice_start_s, cfg.slice_end_s
    sampled = [r for r in records
               if start <= r.submit_s < end][::cfg.sampling_stride]
    if start == 0:
        return sampled
    return [replace(r, submit_s=r.submit_s - start) for r in sampled]


def _ceil_pages(nbytes: int) -> int:
    """Pages needed to hold nbytes, rounded up to whole pages."""
    return -(-nbytes // PAGE_SIZE)


def _tag_uniforms(seed: int, n: int) -> list[float]:
    # Counter-based: the draw for record i is the first of a Philox stream
    # keyed by seed at counter i, so it depends only on (seed, i) and raising
    # sgx_fraction can only add enclave jobs, never reshuffle old ones.  One
    # Philox block holds four draws and the stream advances the counter once
    # per block, so every fourth draw of one stream is that first draw.
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random(4 * n)[::4].tolist()


def materialize(records: Sequence[RawJobRecord],
                cfg: ScalingConfig) -> list[JobSpec]:
    """Scale fraction records into concrete jobs.

    Record i becomes an enclave job iff its seeded uniform draw falls below
    cfg.sgx_fraction; memory fractions are multiplied by the matching capacity
    multiplier.  Enclave jobs get page counts rounded up to whole pages, with
    at least one page declared (an enclave cannot be smaller than one page).
    """
    sgx_fraction = cfg.sgx_fraction
    sgx_multiplier, std_multiplier = cfg.sgx_multiplier, cfg.std_multiplier
    enclave, standard = JobKind.SGX, JobKind.STANDARD
    jobs: list[JobSpec] = []
    append = jobs.append
    uniforms = _tag_uniforms(cfg.rng_seed, len(records))
    for rec, uniform in zip(records, uniforms):
        sgx = uniform < sgx_fraction
        multiplier = sgx_multiplier if sgx else std_multiplier
        requested = int(round(rec.assigned_mem_frac * multiplier))
        actual = int(round(rec.max_mem_frac * multiplier))
        if sgx:
            kind = enclave
            declared_pages = max(1, _ceil_pages(requested))
            actual_pages = _ceil_pages(actual)
        else:
            kind = standard
            declared_pages = actual_pages = 0
        append(JobSpec(rec.job_id, kind, round(rec.submit_s * 1000),
                       round(rec.duration_s * 1000), requested, actual,
                       declared_pages, actual_pages))
    return jobs


def malicious_id(k: int) -> str:
    """The job id of the k-th injected malicious job."""
    return f"malicious-{k}"


def inject_malicious(jobs: Sequence[JobSpec], n: int, declared_pages: int,
                     use_fraction: float, usable_pages: int) -> list[JobSpec]:
    """Append n adversarial enclave jobs that declare a tiny page limit but
    allocate use_fraction of the target protected-memory budget.

    They are submitted at time zero and sized to outlive the whole workload,
    so unless limit enforcement kills them at startup they squat on protected
    pages for the entire replay.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 0.0 < use_fraction <= 1.0:
        raise ValueError("use_fraction must lie in (0, 1]")
    if usable_pages < 1:
        raise ValueError("usable_pages must be >= 1")
    span = max((j.submit_ms + j.duration_ms for j in jobs), default=0)
    actual_pages = int(use_fraction * usable_pages)
    out = list(jobs)
    for k in range(n):
        out.append(JobSpec(
            job_id=malicious_id(k),
            kind=JobKind.MALICIOUS_SGX,
            submit_ms=0,
            duration_ms=span,
            requested_mem=PAGE_SIZE,
            actual_mem=actual_pages * PAGE_SIZE,
            declared_epc_pages=declared_pages,
            actual_epc_pages=actual_pages,
        ))
    return out


def _fmt_number(x: float):
    return int(x) if float(x).is_integer() else x


def write_canonical_csv(records: Iterable[RawJobRecord], dest) -> None:
    with _open_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CANONICAL_FIELDS)
        for r in records:
            writer.writerow([r.job_id, _fmt_number(r.submit_s),
                             _fmt_number(r.duration_s),
                             _fmt_number(r.assigned_mem_frac),
                             _fmt_number(r.max_mem_frac)])


def write_jobs_csv(jobs: Iterable[JobSpec], dest) -> None:
    with _open_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(JOBS_FIELDS)
        for j in jobs:
            writer.writerow([j.job_id, j.kind.value, j.submit_ms, j.duration_ms,
                             j.requested_mem, j.actual_mem,
                             j.declared_epc_pages, j.actual_epc_pages])


@contextmanager
def _csv_reader(source, fields: tuple[str, ...]):
    """A csv reader positioned after the header of a CSV file (path or open
    file), which must equal `fields`.  A ValueError that the body raises is
    a TraceParseError naming the file (a path, or an open file's name) and
    the reader's line, and bytes that are not UTF-8 are one naming the
    file.  An empty source has no rows."""
    path = (os.fspath(source) if isinstance(source, (str, os.PathLike))
            else getattr(source, "name", None))
    try:
        with _open_text(source) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and tuple(h.strip() for h in header) != fields:
                raise TraceParseError(f"expected header {','.join(fields)}",
                                      line=1, path=path)
            try:
                yield reader
            except (TraceParseError, UnicodeDecodeError):
                raise
            except ValueError as exc:
                raise TraceParseError(str(exc), line=reader.line_num,
                                      path=path) from None
    except UnicodeDecodeError as exc:
        raise TraceParseError(str(exc), path=path) from None


def _width_error(fields: tuple[str, ...], row: list[str]) -> ValueError:
    return ValueError(f"expected {len(fields)} fields, got {len(row)}")


def _duplicate_error(job_id: str, first_line: int) -> ValueError:
    return ValueError(f"duplicate job_id {job_id!r} (first seen on line "
                      f"{first_line})")


def read_jobs_csv(source) -> list[JobSpec]:
    """The jobs rows, one per job.  Each row is checked by itself first, then
    a job id seen before is an error naming both lines."""
    jobs: list[JobSpec] = []
    seen: dict[str, int] = {}
    with _csv_reader(source, JOBS_FIELDS) as reader:
        for row in reader:
            if len(row) != 8:
                if row:
                    raise _width_error(JOBS_FIELDS, row)
                continue
            job_id, kind, submit, duration, mem, used, declared, pages = row
            job = JobSpec(job_id, _job_kind(kind), int(submit), int(duration),
                          int(mem), int(used), int(declared), int(pages))
            if job_id in seen:
                raise _duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            jobs.append(job)
    return jobs
