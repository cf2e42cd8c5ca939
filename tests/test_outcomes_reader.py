"""The outcome reader against the per-field oracle: over valid rows and
rows with one or more faults, `read_outcomes_csv` returns the oracle's
records, or raises its TraceParseError with the same message and line."""

import csv
import io

from hypothesis import example, given, settings, strategies as st

import outcomes_oracle
from epcsched.engine import JobStatus
from epcsched.report import OUTCOMES_FIELDS, read_outcomes_csv
from epcsched.trace import JobKind, TraceParseError

# Few ids, so that rows repeat them; some a csv writer quotes.
_IDS = st.sampled_from(["a", "b", "c", "a b", 'q"', "x,y"])
_KINDS = [kind.value for kind in JobKind]
_STATUSES = [status.value for status in JobStatus]
_NODES = st.sampled_from(["", "n1", "s 1"])
# Strings int() reads, and strings it does not.
_INTEGERS = st.one_of(st.integers(-3, 60).map(str),
                      st.sampled_from([" 7", "+3", "1_0", "007"]))
_NOT_INTEGERS = st.sampled_from(["", "x", "1.5", "nan", "0x10", "1e3", "--1"])
_NOT_MEMBERS = st.sampled_from(["", "weird", "SGX", "standard ", "completed",
                                "Killed "])


@st.composite
def _valid_row(draw) -> list[str]:
    """A row whose times fit its status, as the engine writes them."""
    status = draw(st.sampled_from(_STATUSES))
    submit = draw(st.integers(0, 50))
    start = finish = ""
    if status == JobStatus.COMPLETED.value:
        start = submit + draw(st.integers(0, 5))
        finish = str(start + draw(st.integers(0, 5)))
        start = str(start)
    return [draw(_IDS), draw(st.sampled_from(_KINDS)), str(submit), start,
            finish, status, draw(_NODES), str(draw(st.integers(0, 9))),
            str(draw(st.integers(0, 9)))]


@st.composite
def _spoiled(draw, row: list[str]) -> list[str]:
    """`row` with one fault in a field: a bad kind or status, a start or
    finish dropped or added, a time moved out of order, or a field that is
    not an integer."""
    fault = draw(st.sampled_from(["kind", "status", "time", "order",
                                  "integer"]))
    row = list(row)
    if fault == "kind":
        row[1] = draw(_NOT_MEMBERS)
    elif fault == "status":
        row[5] = draw(st.one_of(_NOT_MEMBERS, st.sampled_from(_STATUSES)))
    elif fault == "time":  # drop a start or finish, or add one
        column = draw(st.sampled_from([3, 4]))
        row[column] = "" if row[column] else draw(_INTEGERS)
    elif fault == "order":
        row[draw(st.sampled_from([2, 3, 4]))] = draw(_INTEGERS)
    else:
        row[draw(st.sampled_from([2, 3, 4, 7, 8]))] = draw(_NOT_INTEGERS)
    return row


@st.composite
def _rows(draw) -> list[list[str]]:
    """Rows with up to two faulty fields each, some of them cut short,
    lengthened or blank; their ids repeat."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = draw(_valid_row())
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            row = draw(_spoiled(row))
        width = draw(st.sampled_from([9] * 16 + [0, 1, 8, 10]))
        rows.append((row + ["0"])[:width])
    return rows


def _read(reader, text: str):
    """The reader's records, or its error's message and line."""
    try:
        return reader(io.StringIO(text))
    except TraceParseError as exc:
        return str(exc), exc.line


def _text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(OUTCOMES_FIELDS)
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=500, deadline=None)
@given(_rows())
@example([["a", "standard", "0", "5", "", "Completed", "n1", "0", "0"]])
@example([["a", "sgx", "9", "5", "7", "Completed", "s1", "1", "1"]])
@example([["a", "sgx", "0", "0", "", "Killed", "s1", "1", "1"]])
@example([["a", "weird", "x", "", "", "Done", "", "0", "0"]])
@example([["a", "standard", "0", "", "", "Unfinished", "", "0", "0"], [],
          ["a", "standard", "0", "1", "2", "Completed", "n1", "0", "0"]])
@example([["a", "sgx", " 3", "+3", "1_0", "Completed", "", "007", "-1"]])
def test_the_reader_agrees_with_the_oracle(rows):
    text = _text(rows)
    assert _read(read_outcomes_csv, text) == _read(
        outcomes_oracle.read_outcomes_csv, text)
