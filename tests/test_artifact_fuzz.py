"""Fuzzed run artifacts: a jobs, outcomes or pending CSV with one spoiled
row is a TraceParseError naming the file and that row's line, and the
reader leaves the cyclic collector as it found it, on or off."""

import contextlib
import csv
import gc
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from epcsched.engine import JobOutcome, JobStatus
from epcsched.report import (OUTCOMES_FIELDS, PENDING_FIELDS,
                             read_outcomes_csv, read_pending_csv,
                             write_outcomes_csv, write_pending_csv)
from epcsched.trace import (JOBS_FIELDS, JobKind, JobSpec, TraceParseError,
                            read_jobs_csv, write_jobs_csv)

# Ids a csv writer quotes, or keeps with their spaces.
_IDS = st.text(alphabet='ab ,"', min_size=1, max_size=5)
_COUNTS = st.integers(0, 10 ** 12)


@st.composite
def _job(draw):
    kind = draw(st.sampled_from(JobKind))
    pages = ((draw(st.integers(1, 10 ** 6)), draw(st.integers(0, 10 ** 6)))
             if kind.uses_epc else (0, 0))
    return JobSpec(draw(_IDS), kind, draw(_COUNTS), draw(_COUNTS),
                   draw(_COUNTS), draw(_COUNTS), *pages)


@st.composite
def _outcome(draw):
    """An outcome whose times fit its status, as the engine writes them."""
    status = draw(st.sampled_from(JobStatus))
    submit = draw(_COUNTS)
    start = finish = None
    if status is JobStatus.COMPLETED:
        start = submit + draw(st.integers(0, 10 ** 6))
        finish = start + draw(st.integers(0, 10 ** 6))
    return JobOutcome(draw(_IDS), draw(st.sampled_from(JobKind)), submit,
                      start, finish, status, draw(st.none() | _IDS),
                      draw(_COUNTS), draw(_COUNTS))


# reader, writer, header, good items, integer columns, enum columns (index
# -> enum name); only jobs and outcomes carry ids, in column 0
_ARTIFACTS = {
    "jobs": (read_jobs_csv, write_jobs_csv, JOBS_FIELDS,
             st.lists(_job(), min_size=1, max_size=6,
                      unique_by=lambda j: j.job_id),
             (2, 3, 4, 5, 6, 7), {1: "JobKind"}),
    "outcomes": (read_outcomes_csv, write_outcomes_csv, OUTCOMES_FIELDS,
                 st.lists(_outcome(), min_size=1, max_size=6,
                          unique_by=lambda o: o.job_id),
                 (2, 3, 4, 7, 8), {1: "JobKind", 5: "JobStatus"}),
    "pending": (read_pending_csv, write_pending_csv, PENDING_FIELDS,
                st.lists(st.tuples(_COUNTS, _COUNTS), min_size=1, max_size=6),
                (0, 1), {}),
}
_FAULTS = {
    "jobs": ["width", "integer", "enum", "duplicate", "oversized", "utf8"],
    "outcomes": ["width", "integer", "enum", "status", "duplicate",
                 "oversized", "utf8"],
    "pending": ["width", "integer", "oversized", "utf8"],
}
_NOT_INTEGERS = st.sampled_from(["x", "1.5", "--1", "nan", "1e3", "0x10"])
_NOT_MEMBERS = st.sampled_from(["", "weird", "SGX", "standard ", "completed"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


def _rows(writer, items) -> list[list[str]]:
    """The items' rows, header first, as their writer writes them."""
    buf = io.StringIO()
    writer(items, buf)
    return list(csv.reader(io.StringIO(buf.getvalue())))


@st.composite
def _spoiled(draw):
    """(reader, the file's bytes, the 1-based line of the fault, a fragment
    of the message)."""
    name = draw(st.sampled_from(sorted(_ARTIFACTS)))
    reader, writer, fields, items, integers, enums = _ARTIFACTS[name]
    rows = _rows(writer, draw(items))
    fault = draw(st.sampled_from(_FAULTS[name]))
    if fault == "duplicate" and len(rows) < 3:
        fault = "width"  # a duplicate needs an earlier row
    # the row to spoil (row 0 is the header), after a first row to repeat
    at = draw(st.integers(2 if fault == "duplicate" else 1, len(rows) - 1))
    row = rows[at]
    line = at + 1
    if fault == "width":
        rows[at] = draw(st.sampled_from([row[:-1], row + [row[-1]]]))
        reason = f"expected {len(fields)} fields, got {len(rows[at])}"
    elif fault == "integer":
        row[draw(st.sampled_from(integers))] = draw(_NOT_INTEGERS)
        reason = ("expected integers" if name == "pending"
                  else "invalid literal for int()")
    elif fault == "enum":
        column = draw(st.sampled_from(sorted(enums)))
        row[column] = draw(_NOT_MEMBERS)
        reason = f"{row[column]!r} is not a valid {enums[column]}"
    elif fault == "status":
        submit, start, finish, status = row[2], row[3], row[4], row[5]
        if status == JobStatus.COMPLETED.value:
            if draw(st.booleans()):
                row[draw(st.sampled_from([3, 4]))] = ""
                reason = "needs a start_ms and a finish_ms"
            else:
                row[4] = str(int(start) - 1)
                reason = (f"expected submit_ms <= start_ms <= finish_ms, "
                          f"got {submit}, {start}, {row[4]}")
        else:
            row[draw(st.sampled_from([3, 4]))] = submit
            reason = f"{status} job {row[0]!r} has a start_ms or a finish_ms"
    elif fault == "duplicate":
        first = draw(st.integers(1, at - 1))
        row[0] = rows[first][0]
        reason = (f"duplicate job_id {row[0]!r} (first seen on line "
                  f"{first + 1})")
    elif fault == "oversized":
        row[draw(st.integers(0, len(row) - 1))] = (
            "x" * (csv.field_size_limit() + 1))
        reason = "field larger than field limit"
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    lines = text.getvalue().encode().split(b"\n")
    if fault == "utf8":
        cut = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + draw(_NOT_UTF8) + lines[at][cut:]
        reason = "'utf-8' codec can't decode"
    return reader, b"\n".join(lines), line, reason


@contextlib.contextmanager
def _collector(on: bool):
    """The collector on or off inside the block, as it was after."""
    was = gc.isenabled()
    (gc.enable if on else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


_COLLECTOR = pytest.mark.parametrize("collector", [True, False],
                                     ids=["collector-on", "collector-off"])


@_COLLECTOR
@settings(max_examples=300, deadline=None)
@given(spoiled=_spoiled())
def test_a_spoiled_artifact_names_its_file_and_line(collector, spoiled):
    reader, data, line, reason = spoiled
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run" / "artifact.csv"
        path.parent.mkdir()
        path.write_bytes(data)
        with _collector(collector):
            with pytest.raises(TraceParseError) as err:
                reader(path)
            assert gc.isenabled() is collector
    assert err.value.line == line
    message = str(err.value)
    assert message.startswith(f"{path}: line {line}: "), message
    assert reason in message, message


@_COLLECTOR
@settings(max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(_ARTIFACTS)), data=st.data())
def test_a_good_artifact_reads_back(collector, name, data):
    # The same items, written and read back, leave the collector as found.
    reader, writer, _, items, _, _ = _ARTIFACTS[name]
    items = data.draw(items)
    buf = io.StringIO()
    writer(items, buf)
    with _collector(collector):
        assert reader(io.StringIO(buf.getvalue())) == items
        assert gc.isenabled() is collector
