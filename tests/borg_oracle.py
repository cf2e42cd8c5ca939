"""The 2011-schema shard reader as five dicts keyed by (job, task): the
reference `trace.parse_borg_tables` is compared against.

Each event row stores its time in the submit, schedule or finish dict and
its request in a fourth; each usage row keeps its maximum in a fifth, for
every task it names.  The records are built from the finish dict, probing
the other four per task.  It keeps every check and message of the package's
reader, except one: it does not know the schema's after-the-window time, so
a task whose FINISH carries 2^63 - 1 us is kept.
"""

from __future__ import annotations

import csv
import gzip
import math
import zlib
from operator import attrgetter
from pathlib import Path

from epcsched.trace import RawJobRecord, TraceParseError

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
    task_of: dict[str, tuple[str, str]] = {}
    for key, end in finish.items():
        start = sched.get(key)
        if start is None or end < start:
            continue
        job_id = f"{key[0]}-{key[1]}"
        first = task_of.setdefault(job_id, key)
        if first is not key:
            raise TraceParseError(
                f"tasks (job, task) {first} and {key} both become job id "
                f"{job_id!r}", path=str(events_dir))
        records.append(RawJobRecord(
            job_id, max(0.0, submit.get(key, start)),
            end - start, min(max(request.get(key, 0.0), 0.0), 1.0),
            min(max(peak.get(key, 0.0), 0.0), 1.0)))
    records.sort(key=attrgetter("submit_s", "job_id"))
    return records
