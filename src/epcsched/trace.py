"""Workload ingestion: parse normalized job traces, slice them, and scale them
into concrete job specifications.

Trace records describe jobs by memory *fractions* of whatever machine they
originally ran on.  Materialization multiplies those fractions against target
capacities (a large standard-memory node, or a small protected-memory budget
for enclave-backed jobs) and tags a seeded subset of records as enclave jobs.
It also owns the jobs CSV, `JobSpec`'s serialized form.
"""

from __future__ import annotations

import codecs
import csv
import gzip
import io
import logging
import math
import zlib
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass, replace
from enum import Enum
from itertools import chain, count, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ._csvio import (TraceParseError, csv_reader, duplicate_error, gc_paused,
                     not_a_member, width_error, write_csv)
from ._philox import Philox, doubles
from ._units import DEFAULT_EPC_USABLE, GIB, PAGE_SIZE

log = logging.getLogger(__name__)

DEFAULT_STD_MULTIPLIER = 32 * GIB
DEFAULT_SGX_MULTIPLIER = DEFAULT_EPC_USABLE

TRACE_FORMATS = ("canonical_csv", "borg_tables")  # the default first

CANONICAL_FIELDS = ("job_id", "submit_s", "duration_s",
                    "assigned_mem_frac", "max_mem_frac")
JOBS_FIELDS = ("job_id", "kind", "submit_ms", "duration_ms", "requested_mem",
               "actual_mem", "declared_epc_pages", "actual_epc_pages")


class JobKind(Enum):
    STANDARD = "standard"
    SGX = "sgx"
    MALICIOUS_SGX = "malicious_sgx"

    def __init__(self, value: str):
        # A plain member attribute: the scheduler reads it for every queued
        # job on every tick.
        self.uses_epc = value != "standard"


# Each value's member, for the readers: one dict lookup, where calling the
# enum costs several Python calls per row.  A miss raises `not_a_member`.
JOB_KINDS = {member.value: member for member in JobKind}


def slot_setters(cls) -> tuple:
    """The `__set__` of each slot of a slotted dataclass, in field order: a
    frozen record's own `__init__` stores through these, where the generated
    one calls `object.__setattr__` once per field.  `cls` must be the class
    that `dataclass(slots=True)` returned, not the one its body defined."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


def refuse_assignment(cls):
    """Make a frozen, slotted dataclass refuse every assignment and deletion
    as Python 3.12 does; before 3.12, a name that is not a field raised
    `TypeError`, as the generated methods test the class the body defined."""
    def refuse(self, name, *value):  # both __setattr__ and __delattr__
        verb = "assign to" if value else "delete"
        raise FrozenInstanceError(f"cannot {verb} field {name!r}")
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@refuse_assignment
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
 _set_raw_max_mem_frac) = slot_setters(RawJobRecord)


@refuse_assignment
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
 _set_spec_actual_epc_pages) = slot_setters(JobSpec)


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
        if not 0 <= self.slice_start_s < math.inf:
            raise ValueError("slice_start_s must be a finite number >= 0, "
                             f"got {self.slice_start_s!r}")
        if math.isnan(self.slice_end_s):
            raise ValueError("slice_end_s must be a number or inf, got nan")
        if not self.slice_start_s < self.slice_end_s:
            raise ValueError("slice_start_s must lie below slice_end_s")
        if self.sampling_stride < 1:
            raise ValueError("sampling_stride must be >= 1")
        if not 0.0 <= self.sgx_fraction <= 1.0:
            raise ValueError("sgx_fraction must lie in [0, 1]")
        if self.std_multiplier <= 0:
            raise ValueError("std_multiplier must be positive")
        if self.sgx_multiplier <= 0:
            raise ValueError("sgx_multiplier must be positive")
        if not 0 <= self.rng_seed < 2 ** 128:
            raise ValueError("rng_seed must lie in [0, 2**128), "
                             f"got {self.rng_seed}")


def parse_trace(source, fmt: str = TRACE_FORMATS[0]) -> list[RawJobRecord]:
    """Dispatch to a trace reader by module global, which a per-layer split
    wraps by name.  fmt is one of TRACE_FORMATS."""
    if fmt == "canonical_csv":
        return parse_canonical_csv(source)
    if fmt == "borg_tables":
        return parse_borg_tables(source)
    raise ValueError(f"unknown trace format {fmt!r}, not one of {TRACE_FORMATS}")


@gc_paused
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
    with csv_reader(source, CANONICAL_FIELDS) as reader:
        for row in filter(None, reader):
            if len(row) != 5:
                raise width_error(CANONICAL_FIELDS, row)
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
                raise duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            records.append(record)
    records.sort(key=attrgetter("submit_s"))
    return records


# Column indices into 2011 public cluster-trace shards.
_EVENT_TIME, _EVENT_JOB_ID, _EVENT_TASK_INDEX = 0, 2, 3
_EVENT_TYPE, _EVENT_MEM_REQUEST = 5, 10
_USAGE_JOB_ID, _USAGE_TASK_INDEX, _USAGE_MAX_MEM = 2, 3, 10

# A task's entry in the borg reader's table is [submit, schedule, request,
# peak, finish, (job, task)]: the SUBMIT (0), SCHEDULE (1) and FINISH (4)
# event types index their own times.
_EV_SUBMIT, _EV_SCHEDULE, _REQUEST, _PEAK, _EV_FINISH = range(5)
_EV_KEPT = frozenset((_EV_SUBMIT, _EV_SCHEDULE, _EV_FINISH))
# The schema's event types (0-8) as shards spell them; any other spelling
# is left to int().
_EVENT_TYPES = {str(etype): etype for etype in range(9)}
# The schema's time of an event after the trace window, 2^63 - 1 us, which
# parses to the float 2^63.
_AFTER_WINDOW_S = float(2 ** 63 - 1) / 1e6


# Decompressed bytes a shard is read and decoded in at a time.
_SHARD_BLOCK = 128 * 1024


def _shard_lines(fh) -> Iterator[io.StringIO]:
    """The text of a binary shard as one StringIO of whole lines per block.

    Each block is decoded incrementally, so a UTF-8 character split across
    two blocks is decoded whole.  The text is cut after its last line end,
    and what follows carries into the next block: a final "\\r" may be the
    first half of "\\r\\n", so only a "\\r" with a character after it ends
    a line.  Every cut thus falls where the universal-newline reading of
    the whole shard ends a line, and iterating the views, which read with
    `newline=""`, gives the lines of `gzip.open(shard, "rt", newline="")`
    with no Python code run per line.  Memory stays near one block plus
    one line.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    tail = ""
    while block := fh.read(_SHARD_BLOCK):
        text = tail + decode(block)
        cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        yield io.StringIO(text[:cut], newline="")
        tail = text[cut:]
    tail += decode(b"", True)
    if tail:
        yield io.StringIO(tail, newline="")


@contextmanager
def _shard_reader(shard: Path):
    """(1-based row number, row) pairs of one shard, parsed by csv.reader.
    A shard that does not decompress or decode is a TraceParseError naming
    it, and a row csv.reader rejects (a field over its size limit, say) is
    one naming the shard and the row."""
    with gzip.open(shard, "rb") as fh:
        rownos = count(1)
        try:
            yield zip(rownos, csv.reader(chain.from_iterable(
                _shard_lines(fh))))
        except (UnicodeDecodeError, EOFError, gzip.BadGzipFile,
                zlib.error) as exc:
            raise TraceParseError(f"unreadable shard: {exc}",
                                  path=str(shard)) from None
        except csv.Error as exc:
            # zip draws the row number before the row, so the failed row's
            # number is the last one drawn
            raise TraceParseError(str(exc), line=next(rownos) - 1,
                                  path=str(shard)) from None


def _shards(directory: Path) -> list[Path]:
    """The gzip shards of one table, in name order.  An uncompressed
    `*.csv` file there is a TraceParseError naming it, not a shard to
    skip."""
    plain = sorted(directory.glob("*.csv"))
    if plain:
        raise TraceParseError("uncompressed shard: shards must be gzip "
                              "*.csv.gz files", path=str(plain[0]))
    return sorted(directory.glob("*.csv.gz"))


def _non_finite(field: str) -> ValueError:
    return ValueError(f"non-finite number {field.strip()!r}")


def _shard_error(shard: Path, rowno: int, row: list[str],
                 exc: Exception) -> TraceParseError:
    reason = (f"short row ({len(row)} fields)" if isinstance(exc, IndexError)
              else str(exc))
    return TraceParseError(reason, line=rowno, path=str(shard))


@gc_paused
def parse_borg_tables(root) -> list[RawJobRecord]:
    """Adapt a directory of gzipped 2011-schema shards into canonical records.

    Expects task_events/ and task_usage/ subdirectories of *.csv.gz files.
    Each task becomes one record keyed "<job>-<task index>"; its duration runs
    from its first SCHEDULE to its FINISH event and tasks that never finish
    are dropped, as are tasks whose FINISH carries the schema's time for an
    event after the trace window (2^63 - 1 us).  assigned_mem_frac comes from
    the request column of the submit/schedule rows, max_mem_frac from the
    maximum across usage rows.  Usage rows of a task with no submit, schedule
    or finish event are checked, then ignored.  Out-of-range fractions are
    clamped to [0, 1]: the public trace carries a handful of requests above
    the rescaling ceiling.  Two kept tasks whose keys join to one id, such as
    ("a-b", "c") and ("a", "b-c"), are a TraceParseError naming task_events/
    and both (job, task) pairs.  A plain *.csv file in either directory is a
    TraceParseError naming it.

    The record clamps compare instead of calling min and max, and give what
    `max(0.0, submit)` and `min(max(x, 0.0), 1.0)` give.  Every value is
    finite by then, and max and min return their first argument unless the
    other is strictly greater or smaller.  So the submit time is kept only
    above 0.0, and -0.0 becomes 0.0; a fraction becomes 0.0 only below 0.0
    and 1.0 only above 1.0, so -0.0 stays -0.0.
    """
    root = Path(root)
    events_dir = root / "task_events"
    usage_dir = root / "task_usage"
    if not events_dir.is_dir():
        raise TraceParseError(f"missing task_events/ directory under {root}")

    events_shards = _shards(events_dir)
    usage_shards = _shards(usage_dir) if usage_dir.is_dir() else []

    # (job, task) -> its entry, for every task with a submit, schedule or
    # finish event; `finished` holds the entries in the order of their first
    # FINISH, the order in which a collision names two tasks.  Times and
    # usage are checked inline, with float() and the finiteness test, where
    # a helper would cost a call per field.
    tasks: dict[tuple[str, str], list] = {}
    finished: list[list] = []
    get = tasks.get
    inf = math.inf
    for shard in events_shards:
        with _shard_reader(shard) as rows:
            for rowno, row in rows:
                try:
                    key = (row[_EVENT_JOB_ID], row[_EVENT_TASK_INDEX])
                    etype = _EVENT_TYPES.get(row[_EVENT_TYPE])
                    if etype is None:
                        etype = int(row[_EVENT_TYPE])
                    field = row[_EVENT_TIME]
                    t = float(field)
                    if not -inf < t < inf:
                        raise _non_finite(field)
                    if etype not in _EV_KEPT:
                        continue
                    task = get(key)
                    if task is None:
                        task = tasks[key] = [None, None, None, -1.0, None, key]
                    if task[etype] is None:
                        task[etype] = t / 1e6  # raw times are in us
                        if etype == _EV_FINISH:
                            finished.append(task)
                    if etype != _EV_FINISH and task[_REQUEST] is None:
                        field = row[_EVENT_MEM_REQUEST].strip()
                        if field:
                            value = float(field)
                            if not -inf < value < inf:
                                raise _non_finite(field)
                            task[_REQUEST] = value
                except (IndexError, ValueError) as exc:
                    raise _shard_error(shard, rowno, row, exc) from None

    for shard in usage_shards:
        with _shard_reader(shard) as rows:
            for rowno, row in rows:
                try:
                    key = (row[_USAGE_JOB_ID], row[_USAGE_TASK_INDEX])
                    field = row[_USAGE_MAX_MEM].strip()
                    if field:
                        value = float(field)
                        if not -inf < value < inf:
                            raise _non_finite(field)
                        task = get(key)
                        if task is not None and value > task[_PEAK]:
                            task[_PEAK] = value
                except (IndexError, ValueError) as exc:
                    raise _shard_error(shard, rowno, row, exc) from None

    records = []
    task_of: dict[str, tuple[str, str]] = {}
    for submit, start, request, peak, end, key in finished:
        if start is None or end < start or end >= _AFTER_WINDOW_S:
            continue
        job_id = f"{key[0]}-{key[1]}"
        first = task_of.setdefault(job_id, key)
        if first is not key:
            raise TraceParseError(
                f"tasks (job, task) {first} and {key} both become job id "
                f"{job_id!r}", path=str(events_dir))
        if submit is None:
            submit = start
        if request is None:
            request = 0.0
        records.append(RawJobRecord(
            job_id, submit if submit > 0.0 else 0.0, end - start,
            0.0 if request < 0.0 else 1.0 if request > 1.0 else request,
            0.0 if peak < 0.0 else 1.0 if peak > 1.0 else peak))
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


_TAG_BLOCK = 1024  # counters per Philox call, one 128-bit lane each


def _tag_uniforms(seed: int, n: int) -> list[float]:
    """Record i's uniform draw in [0, 1), for i < n.

    Draw i is word 0 of the Philox4x64-10 block at counter i + 1 under the
    128-bit key `seed`, turned into a double as numpy's `random()` does.
    That is the first draw of
    `Generator(Philox(key=seed, counter=[i, 0, 0, 0]))`, since that stream
    advances its counter before each block.  A draw depends only on (seed,
    i), so raising sgx_fraction can only add enclave jobs, never reshuffle
    old ones.  The blocks come from the package's one Philox, `_TAG_BLOCK`
    counters per call.
    """
    if n == 0:
        return []
    philox = Philox(seed, min(n, _TAG_BLOCK))
    draws: list[float] = []
    for first in range(1, n + 1, philox.lanes):
        draws += doubles(philox.blocks(first)[::4])
    del draws[n:]  # the last call's counters past n
    return draws


@gc_paused
def materialize(records: Sequence[RawJobRecord],
                cfg: ScalingConfig) -> list[JobSpec]:
    """Scale fraction records into concrete jobs.

    Record i becomes an enclave job iff its seeded uniform draw falls below
    cfg.sgx_fraction; memory fractions are multiplied by the matching capacity
    multiplier.  Enclave jobs get page counts rounded up to whole pages, with
    at least one page declared (an enclave cannot be smaller than one page).
    Every draw lies in [0, 1), so at fraction 0 none falls below it and at
    fraction 1 every one does: those two fractions draw nothing.
    """
    sgx_fraction = cfg.sgx_fraction
    sgx_multiplier, std_multiplier = cfg.sgx_multiplier, cfg.std_multiplier
    enclave, standard = JobKind.SGX, JobKind.STANDARD
    jobs: list[JobSpec] = []
    append = jobs.append
    if sgx_fraction in (0.0, 1.0):
        uniforms = repeat(0.0)  # a stand-in draw tags records alike here
    else:
        uniforms = _tag_uniforms(cfg.rng_seed, len(records))
    for rec, uniform in zip(records, uniforms):
        sgx = uniform < sgx_fraction
        multiplier = sgx_multiplier if sgx else std_multiplier
        requested = round(rec.assigned_mem_frac * multiplier)
        actual = round(rec.max_mem_frac * multiplier)
        if sgx:
            kind = enclave
            # bytes to whole pages, rounded up
            declared_pages = max(1, -(-requested // PAGE_SIZE))
            actual_pages = -(-actual // PAGE_SIZE)
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
    write_csv(dest, CANONICAL_FIELDS, (
        (r.job_id, _fmt_number(r.submit_s), _fmt_number(r.duration_s),
         _fmt_number(r.assigned_mem_frac), _fmt_number(r.max_mem_frac))
        for r in records))


def write_jobs_csv(jobs: Iterable[JobSpec], dest) -> None:
    # `_value_` is a plain attribute read, where `.value` runs a Python
    # property and a dict keyed by kinds the Python-level `__hash__`.
    write_csv(dest, JOBS_FIELDS, (
        (j.job_id, j.kind._value_, j.submit_ms, j.duration_ms,
         j.requested_mem, j.actual_mem, j.declared_epc_pages,
         j.actual_epc_pages) for j in jobs))


@gc_paused
def read_jobs_csv(source) -> list[JobSpec]:
    """The jobs rows, one per job.  Each row is checked by itself first, then
    a job id seen before is an error naming both lines."""
    jobs: list[JobSpec] = []
    seen: dict[str, int] = {}
    with csv_reader(source, JOBS_FIELDS) as reader:
        for row in filter(None, reader):
            if len(row) != 8:
                raise width_error(JOBS_FIELDS, row)
            job_id, kind, submit, duration, mem, used, declared, pages = row
            try:
                kind = JOB_KINDS[kind]
            except KeyError:
                raise not_a_member(JobKind, kind) from None
            job = JobSpec(job_id, kind, int(submit), int(duration), int(mem),
                          int(used), int(declared), int(pages))
            if job_id in seen:
                raise duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            jobs.append(job)
    return jobs
