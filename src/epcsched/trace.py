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
import sys
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

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


@contextmanager
def _shard_reader(shard: Path):
    """A csv.reader over one shard.  A shard that does not decompress or
    decode is a TraceParseError naming it."""
    with gzip.open(shard, "rt", encoding="utf-8", newline="") as fh:
        try:
            yield csv.reader(fh)
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
    are dropped, as are tasks whose FINISH carries the schema's time for an
    event after the trace window (2^63 - 1 us).  assigned_mem_frac comes from
    the request column of the submit/schedule rows, max_mem_frac from the
    maximum across usage rows.  Usage rows of a task with no submit, schedule
    or finish event are checked, then ignored.  Out-of-range fractions are
    clamped to [0, 1]: the public trace carries a handful of requests above
    the rescaling ceiling.  Two kept tasks whose keys join to one id, such as
    ("a-b", "c") and ("a", "b-c"), are a TraceParseError naming task_events/
    and both (job, task) pairs.
    """
    root = Path(root)
    events_dir = root / "task_events"
    usage_dir = root / "task_usage"
    if not events_dir.is_dir():
        raise TraceParseError(f"missing task_events/ directory under {root}")

    # (job, task) -> its entry, for every task with a submit, schedule or
    # finish event; `finished` holds the entries in the order of their first
    # FINISH, the order in which a collision names two tasks.
    tasks: dict[tuple[str, str], list] = {}
    finished: list[list] = []
    get = tasks.get
    for shard in sorted(events_dir.glob("*.csv.gz")):
        with _shard_reader(shard) as reader:
            for rowno, row in enumerate(reader, start=1):
                try:
                    key = (row[_EVENT_JOB_ID], row[_EVENT_TASK_INDEX])
                    etype = _EVENT_TYPES.get(row[_EVENT_TYPE])
                    if etype is None:
                        etype = int(row[_EVENT_TYPE])
                    t = _finite(row[_EVENT_TIME]) / 1e6  # raw times are in us
                    if etype not in _EV_KEPT:
                        continue
                    task = get(key)
                    if task is None:
                        task = tasks[key] = [None, None, None, -1.0, None, key]
                    if task[etype] is None:
                        task[etype] = t
                        if etype == _EV_FINISH:
                            finished.append(task)
                    if etype != _EV_FINISH and task[_REQUEST] is None:
                        field = row[_EVENT_MEM_REQUEST].strip()
                        if field:
                            task[_REQUEST] = _finite(field)
                except (IndexError, ValueError) as exc:
                    raise _shard_error(shard, rowno, row, exc) from None

    if usage_dir.is_dir():
        for shard in sorted(usage_dir.glob("*.csv.gz")):
            with _shard_reader(shard) as reader:
                for rowno, row in enumerate(reader, start=1):
                    try:
                        key = (row[_USAGE_JOB_ID], row[_USAGE_TASK_INDEX])
                        field = row[_USAGE_MAX_MEM].strip()
                        if field:
                            value = _finite(field)
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
        records.append(RawJobRecord(
            job_id, max(0.0, start if submit is None else submit),
            end - start,
            0.0 if request is None else min(max(request, 0.0), 1.0),
            min(max(peak, 0.0), 1.0)))
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


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC'11): the two round multipliers and the two key increments.
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_TAG_BLOCK = 1024  # counters per block, one 128-bit lane each


def _lanes(words: array) -> int:
    """The 64-bit words as one int, word k at bits [64k, 64k + 64)."""
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _words(lanes: int, count: int) -> array:
    """The inverse of `_lanes`: the int's first `count` 64-bit words."""
    words = array("Q", lanes.to_bytes(8 * count, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _tag_uniforms(seed: int, n: int) -> list[float]:
    """Record i's uniform draw in [0, 1), for i < n.

    Draw i is word 0 of the Philox4x64-10 block at counter i + 1 under the
    128-bit key `seed`, turned into a double as numpy's `random()` does,
    (x >> 11) * 2**-53.  That is the first draw of
    `Generator(Philox(key=seed, counter=[i, 0, 0, 0]))`, since that stream
    advances its counter before each block.  A draw depends only on (seed,
    i), so raising sgx_fraction can only add enclave jobs, never reshuffle
    old ones.

    Counters are independent, so a block of them runs together.  Words 0
    and 2 of the block's counters are one int each, counter j's word in the
    low half of the int's 128-bit lane j; words 1 and 3 are the low halves
    of the previous round's two products.  The exactness argument, per
    round: a lane holds a value below 2**64, so its product with a 64-bit
    multiplier is below 2**128 and never carries into the next lane.
    Shifting a product right by 64 puts each lane's high word in its low
    half and the next lane's low word in its high half.  XORing the other
    product of the previous round and the key, replicated in every lane,
    leaves each low half as Philox computes it, and the mask then clears
    every high half.
    """
    if n == 0:
        return []
    k0, k1 = seed & _MASK64, seed >> 64
    count = min(n, _TAG_BLOCK)
    ones = _lanes(array("Q", (1, 0)) * count)  # 1 in every lane
    ramp_words = array("Q", bytes(16 * count))
    ramp_words[::2] = array("Q", range(count))
    ramp = _lanes(ramp_words)  # j in lane j
    low, low53 = ones * _MASK64, ones * ((1 << 53) - 1)
    round_keys = []
    for _ in range(_PHILOX_ROUNDS):
        round_keys.append((ones * k0, ones * k1))
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    draws: list[float] = []
    for start in range(0, n, count):
        # word 0 of lane j is counter start + 1 + j, and words 1 to 3 are 0;
        # p0 and p2 are the previous round's products, whose low words are
        # words 3 and 1
        x0, x2, p0, p2 = (start + 1) * ones + ramp, 0, 0, 0
        for key0, key1 in round_keys:
            q0, q2 = x0 * _PHILOX_M0, x2 * _PHILOX_M1
            x0 = ((q2 >> 64) ^ p2 ^ key0) & low
            x2 = ((q0 >> 64) ^ p0 ^ key1) & low
            p0, p2 = q0, q2
        draws += [m * 2 ** -53 for m in _words((x0 >> 11) & low53,
                                                2 * count)[::2]]
    del draws[n:]  # the last block's lanes past n
    return draws


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
