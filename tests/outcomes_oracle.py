"""The outcome reader as it decoded rows before its lookups went inline:
the reference `report.read_outcomes_csv` is compared against.

Each row goes through the per-field decoders in field order (the kind and
status by calling their enums, the times as optional ints, the record
by the named tuple's constructor) and then the status checks, so a row with
several faults names the first.  It keeps every check, message and line of
the package's reader.
"""

from __future__ import annotations

from epcsched.engine import JobOutcome, JobStatus
from epcsched.report import OUTCOMES_FIELDS
from epcsched._csvio import csv_reader as _csv_reader
from epcsched._csvio import duplicate_error as _duplicate_error
from epcsched._csvio import width_error as _width_error
from epcsched.trace import JobKind


def read_outcomes_csv(source) -> list[JobOutcome]:
    outcomes: list[JobOutcome] = []
    seen: dict[str, int] = {}
    with _csv_reader(source, OUTCOMES_FIELDS) as reader:
        for row in reader:
            if len(row) != 9:
                if row:
                    raise _width_error(OUTCOMES_FIELDS, row)
                continue
            (job_id, kind, submitted, started, finished, status, node_id,
             declared, actual) = row
            kind, submitted = JobKind(kind), int(submitted)
            started = int(started) if started else None
            finished = int(finished) if finished else None
            status = JobStatus(status)
            if status is JobStatus.COMPLETED:
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
            outcome = JobOutcome(job_id, kind, submitted, started, finished,
                                 status, node_id or None, int(declared),
                                 int(actual))
            if job_id in seen:
                raise _duplicate_error(job_id, seen[job_id])
            seen[job_id] = reader.line_num
            outcomes.append(outcome)
    return outcomes
