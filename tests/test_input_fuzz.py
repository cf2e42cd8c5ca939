"""Fuzzed inputs without a fuzz of their own.

A canonical trace CSV with one spoiled row is a TraceParseError naming the
file and that row's line; a row with a negative duration is dropped with a
warning instead, and good rows read back as `write_canonical_csv` wrote
them.  A run's spoiled `meta.json` is a TraceParseError naming it, as is
a label another run has, naming both; `epcsched report` exits 3 on either
and writes no dataset."""

import csv
import io
import json
import logging
import tempfile
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import std_job
from epcsched.cli import main
from epcsched.engine import JobOutcome, JobStatus
from epcsched.report import (figure_datasets, write_outcomes_csv,
                             write_pending_csv)
from epcsched.trace import (JobKind, RawJobRecord, TraceParseError,
                            parse_canonical_csv, write_canonical_csv,
                            write_jobs_csv)

# Ids a csv writer quotes, with no space at either end: the reader strips
# the id.
_IDS = st.text(alphabet='ab ,"', min_size=1, max_size=5).filter(
    lambda s: s == s.strip())
_TIMES = (st.integers(0, 10 ** 9)
          | st.floats(0, 1e12, allow_nan=False, allow_infinity=False))
_FRACTIONS = st.sampled_from([0, 1]) | st.floats(0, 1)

_RECORDS = st.lists(st.builds(RawJobRecord, _IDS, _TIMES, _TIMES,
                              _FRACTIONS, _FRACTIONS),
                    min_size=1, max_size=6, unique_by=attrgetter("job_id"))

_NAMES = {1: "submit_s", 2: "duration_s", 3: "assigned_mem_frac",
          4: "max_mem_frac"}
# Column -> (values out of its range that parse as floats, the message for
# them); a negative duration drops its row instead.
_OUT_OF_RANGE = {
    1: (["-1", "-0.5"], "negative submit time"),
    3: (["1.5", "-0.1", "2"], "outside [0, 1]"),
    4: (["1.0000001", "-1", "7"], "outside [0, 1]"),
}
_FAULTS = ["width", "number", "finite", "range", "empty id", "duplicate",
           "utf8", "oversized"]
_NOT_NUMBERS = st.sampled_from(["x", "", "1,5", "0x10", "1e", "--1", "one"])
_NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


def _canonical_rows(records) -> list[list[str]]:
    """The records' rows, header first, as `write_canonical_csv` writes
    them."""
    buf = io.StringIO()
    write_canonical_csv(records, buf)
    return list(csv.reader(io.StringIO(buf.getvalue())))


def _encode(rows) -> list[bytes]:
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue().encode().split(b"\n")


@st.composite
def _spoiled_trace(draw):
    """(the file's bytes, the 1-based line of the fault, a fragment of the
    message)."""
    rows = _canonical_rows(draw(_RECORDS))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "duplicate" and len(rows) < 3:
        fault = "width"  # a duplicate needs an earlier row
    at = draw(st.integers(2 if fault == "duplicate" else 1, len(rows) - 1))
    row, line = rows[at], at + 1
    if fault == "width":
        rows[at] = draw(st.sampled_from([row[:-1], row + [row[-1]]]))
        reason = f"expected 5 fields, got {len(rows[at])}"
    elif fault == "number":
        row[draw(st.integers(1, 4))] = draw(_NOT_NUMBERS)
        reason = "non-numeric field in"
    elif fault == "finite":
        column = draw(st.integers(1, 4))
        # a duration of -inf is negative, which drops its row
        row[column] = draw(st.sampled_from(
            ["nan", "inf"] if column == 2 else ["nan", "inf", "-inf"]))
        name = _NAMES[column]
        reason = (f"non-finite {name}" if column <= 2
                  else f"{name}={float(row[column])} outside [0, 1]")
    elif fault == "range":
        column = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        values, reason = _OUT_OF_RANGE[column]
        row[column] = draw(st.sampled_from(values))
    elif fault == "empty id":
        row[0] = draw(st.sampled_from(["", " ", "  "]))
        reason = "empty job_id"
    elif fault == "duplicate":
        first = draw(st.integers(1, at - 1))
        row[0] = rows[first][0]
        reason = (f"duplicate job_id {row[0]!r} (first seen on line "
                  f"{first + 1})")
    elif fault == "oversized":
        row[draw(st.integers(0, 4))] = "x" * (csv.field_size_limit() + 1)
        reason = "field larger than field limit"
    lines = _encode(rows)
    if fault == "utf8":
        cut = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:cut] + draw(_NOT_UTF8) + lines[at][cut:]
        reason = "'utf-8' codec can't decode"
    return b"\n".join(lines), line, reason


@settings(max_examples=300, deadline=None)
@given(spoiled=_spoiled_trace())
def test_a_spoiled_trace_row_names_its_file_and_line(spoiled):
    data, line, reason = spoiled
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        path.write_bytes(data)
        with pytest.raises(TraceParseError) as err:
            parse_canonical_csv(path)
    assert err.value.line == line
    message = str(err.value)
    assert message.startswith(f"{path}: line {line}: "), message
    assert reason in message, message


@settings(max_examples=100, deadline=None)
@given(records=_RECORDS, data=st.data())
def test_good_rows_read_back_and_a_negative_duration_is_dropped(records, data):
    rows = _canonical_rows(records)
    assert parse_canonical_csv(io.StringIO(
        b"\n".join(_encode(rows)).decode())) == sorted(
            records, key=attrgetter("submit_s"))
    at = data.draw(st.integers(1, len(rows) - 1))
    rows[at][2] = data.draw(st.sampled_from(["-1", "-0.5", "-1e-300",
                                             "-inf"]))
    handler = _Captured()
    logger = logging.getLogger("epcsched.trace")
    logger.addHandler(handler)
    try:
        got = parse_canonical_csv(io.StringIO(
            b"\n".join(_encode(rows)).decode()))
    finally:
        logger.removeHandler(handler)
    kept = records[:at - 1] + records[at:]
    assert got == sorted(kept, key=attrgetter("submit_s"))
    assert handler.messages == [
        f"dropping job {records[at - 1].job_id} (line {at + 1}): negative "
        f"duration {float(rows[at][2])}"]


class _Captured(logging.Handler):
    """The messages logged to it, at warning level and above."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


# Labels that are no one word: a dataset row is split on whitespace.
_NOT_WORDS = (st.sampled_from(["", " ", "\t"])
              | st.builds(lambda a, ws, b: a + ws + b,
                          st.text(alphabet="ab-", max_size=3),
                          st.sampled_from([" ", "\t", "\n", "\u00a0",
                                           "\u2003"]),
                          st.text(alphabet="ab-", max_size=3)))
_NOT_OBJECTS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.lists(st.integers(), max_size=2))


@st.composite
def _spoiled_meta(draw):
    """(the bytes of a meta.json, a fragment of the message)."""
    fault = draw(st.sampled_from(["not json", "not an object",
                                  "no label", "not a string", "not a word"]))
    string_label = "expected an object with a string label"
    if fault == "not json":
        return draw(st.sampled_from(
            [b"", b"run-a", b"{", b"{'label': 'a'}", b'{"label": "a"',
             b'{"label": "a"} x', b'{"label": "\xff"}'])), ""
    if fault == "not an object":
        return json.dumps(draw(
            _NOT_OBJECTS | st.text(max_size=3))).encode(), string_label
    if fault == "no label":
        meta = draw(st.dictionaries(st.sampled_from(["Label", "labels", "x"]),
                                    st.text(max_size=3), max_size=2))
        return json.dumps(meta).encode(), string_label
    if fault == "not a string":
        label = draw(_NOT_OBJECTS | st.dictionaries(st.just("label"),
                                                    st.just("a")))
        return json.dumps({"label": label}).encode(), string_label
    label = draw(_NOT_WORDS)
    return (json.dumps({"label": label}).encode(),
            f"label {label!r} is empty or holds whitespace")


def _write_run(root: Path, name: str, meta: bytes) -> Path:
    run = root / name
    run.mkdir()
    write_jobs_csv([std_job("x", duration_ms=1_000)], run / "jobs.csv")
    write_outcomes_csv([JobOutcome("x", JobKind.STANDARD, 0, 5, 1_005,
                                   JobStatus.COMPLETED, "n1", 0, 0)],
                       run / "outcomes.csv")
    write_pending_csv([(0, 0)], run / "pending_epc.csv")
    (run / "meta.json").write_bytes(meta)
    return run / "meta.json"


@settings(max_examples=100, deadline=None)
@given(spoiled=_spoiled_meta(), first=st.booleans())
def test_a_spoiled_meta_names_its_file_and_report_exits_3(spoiled, first):
    data, reason = spoiled
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # the spoiled run comes before or after a good one
        _write_run(root, "b", b'{"label": "run-b"}')
        meta = _write_run(root, "a" if first else "c", data)
        with pytest.raises(TraceParseError) as err:
            figure_datasets(root)
        assert str(err.value).startswith(f"{meta}: {reason}"), str(err.value)
        assert main(["report", "--dir", tmp, "--figure", "all"]) == 3
        assert list(root.glob("*.dat")) == []


@pytest.mark.parametrize("copy", ["a", "c"])
def test_two_runs_with_one_label_name_both_metas_and_report_exits_3(
        tmp_path, copy):
    # a copied run directory, listed before or after the original
    first = _write_run(tmp_path, "b", b'{"label": "run-b"}')
    second = _write_run(tmp_path, copy, b'{"label": "run-b"}')
    if copy == "a":
        first, second = second, first
    with pytest.raises(TraceParseError) as err:
        figure_datasets(tmp_path)
    assert str(err.value) == (f"{second}: label 'run-b' is also the label "
                              f"of {first}")
    assert main(["report", "--dir", str(tmp_path), "--figure", "all"]) == 3
    assert list(tmp_path.glob("*.dat")) == []
