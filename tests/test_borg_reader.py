"""The 2011-schema shard reader against its five-dict oracle, and fuzzed
shards: every malformed shard is a TraceParseError naming it, and
`epcsched scale` exits 3 on it without writing its output."""

import contextlib
import csv
import gzip
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import borg_oracle
from epcsched.cli import main
from epcsched.trace import TraceParseError, parse_borg_tables

# ("a-b", "c") and ("a", "b-c") both join to the id "a-b-c".
_JOBS = st.sampled_from(["7", "a", "a-b"])
_TASKS = st.sampled_from(["0", "c", "b-c"])
# Whole seconds in microseconds, and other spellings float() reads.
_TIMES = st.one_of(st.integers(0, 50).map(lambda s: str(s * 1_000_000)),
                   st.sampled_from([" 3000000 ", "-2000000", "2.5e6"]))
# SUBMIT (0), SCHEDULE (1) and FINISH (4), other types, and other spellings
# int() reads.
_TYPES = st.one_of(st.sampled_from(["0", "1", "4"]),
                   st.sampled_from(["2", "5", "8", "9", "-1", " 4", "04", "+1",
                                    "1_0"]))
# Fractions in [0, 1], blanks, and values the reader clamps.
_FRACTIONS = st.sampled_from(["0.25", "0.5", "1", "", " ", "1.5", "-0.5",
                              "-0.0", " 0.75 "])
# Tasks of which two join to one id, and the event types a task's rows
# carry: most finish, some never do, and some are never scheduled.
_COLLIDING = st.sampled_from([("a-b", "c"), ("a", "b-c"), ("7", "0"),
                              ("7", "1")])
_LIVES = [("0", "1", "4"), ("1", "4"), ("0", "1", "4"), ("0", "1"),
          ("0", "4")]
# A fault sets a column to what no reader takes, or cuts the row short.
_FAULTS = st.one_of(
    st.tuples(st.sampled_from([0, 5, 10]),
              st.sampled_from(["", "x", "inf", "-inf", "nan", "1e400", "1.0"])),
    st.tuples(st.none(), st.integers(0, 10)))


@st.composite
def _event_rows(draw):
    row = [""] * 11
    row[0], row[2], row[3] = draw(_TIMES), draw(_JOBS), draw(_TASKS)
    row[5], row[10] = draw(_TYPES), draw(_FRACTIONS)
    return row


@st.composite
def _usage_rows(draw):
    row = [""] * 11
    row[2], row[3], row[10] = draw(_JOBS), draw(_TASKS), draw(_FRACTIONS)
    return row


def _shards(rows):
    """Rows split into 1-3 shards, in shard order."""
    return st.lists(st.lists(rows, max_size=12), min_size=1, max_size=3)


@st.composite
def _tables(draw):
    """task_events and task_usage shards (usage may be None, no directory),
    with up to two faults, each in some row of some shard."""
    events = draw(_shards(_event_rows()))
    usage = draw(st.none() | _shards(_usage_rows()))
    for in_usage, shard, at, (column, value) in draw(st.lists(
            st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 11),
                      _FAULTS), max_size=2)):
        shards = usage if in_usage and usage is not None else events
        rows = shards[shard % len(shards)]
        if rows:
            row = rows[at % len(rows)]
            if column is None:
                del row[value:]
            elif column < len(row):
                row[column] = value
    return events, usage


def _write_tables(root: Path, events, usage) -> None:
    """Shards under root/task_events and, unless usage is None,
    root/task_usage."""
    for table, shards in (("task_events", events), ("task_usage", usage)):
        if shards is None:
            continue
        (root / table).mkdir(parents=True)
        for i, rows in enumerate(shards):
            with gzip.open(root / table / f"part-{i:05d}.csv.gz", "wt",
                           encoding="utf-8", newline="") as fh:
                csv.writer(fh).writerows(rows)


def _outcome(parse, root):
    try:
        return parse(root)
    except TraceParseError as exc:
        return "error", str(exc), exc.line


class TestBorgOracle:
    @settings(max_examples=400, deadline=None)
    @given(_tables())
    def test_same_records_or_same_error(self, tables):
        events, usage = tables
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_tables(root, events, usage)
            assert (_outcome(parse_borg_tables, root)
                    == _outcome(borg_oracle.parse_borg_tables, root))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_COLLIDING, st.integers(0, 9)), min_size=1,
                    max_size=8), st.randoms())
    def test_tasks_in_any_order_and_repeated(self, tasks, rnd):
        # Well-formed rows, shuffled across two shards, some repeated: most
        # tasks submit, schedule and finish, some have no FINISH or no
        # SCHEDULE, and usage rows name tasks with and without events.
        # Colliding tasks finish in any order of their first events.
        events = [[str(t * 1_000_000), "", job, task, "", etype, "", "", "",
                   "", f"0.{t}"]
                  for (job, task), t in tasks
                  for etype in _LIVES[t % len(_LIVES)]]
        events += rnd.sample(events, len(events) // 2)
        rnd.shuffle(events)
        usage = [["", "", job, task] + [""] * 6 + [f"0.{t}"]
                 for (job, task), t in [*tasks, (("9", "9"), 9)]]
        rnd.shuffle(usage)
        split = rnd.randint(0, len(events))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_tables(root, [events[:split], events[split:]], [usage])
            assert (_outcome(parse_borg_tables, root)
                    == _outcome(borg_oracle.parse_borg_tables, root))

    def test_a_collision_names_the_first_task_to_finish_first(self):
        # ("a", "b-c") has the first event but finishes second.
        rows = [["0", "", job, task, "", etype] + [""] * 5
                for job, task, etype in [("a", "b-c", "1"), ("a-b", "c", "1"),
                                         ("a-b", "c", "4"), ("a", "b-c", "4")]]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _write_tables(root, [rows], None)
            error = _outcome(parse_borg_tables, root)
            assert error == _outcome(borg_oracle.parse_borg_tables, root)
            assert "('a-b', 'c') and ('a', 'b-c')" in error[1]


def _good_tables(n_tasks: int):
    """n tasks, each submitted, scheduled and finished, with one usage row,
    split over two shards per table."""
    events = [[str(i * 1_000_000), "", "7", str(i), "", etype, "", "", "", "",
               "0.25"] for i in range(n_tasks) for etype in ("0", "1", "4")]
    usage = [["", "", "7", str(i)] + [""] * 6 + ["0.5"]
             for i in range(n_tasks)]
    return ([events[:len(events) // 2], events[len(events) // 2:]],
            [usage[:n_tasks // 2], usage[n_tasks // 2:]])


# Row faults that every reading of the row reports: the key, event type and
# time of an event row and the memory column of a usage row are always read.
_EVENT_FAULTS = [lambda row: row[:5], lambda row: row[:3],
                 lambda row: [*row[:5], "x", *row[6:]],
                 lambda row: ["nan", *row[1:]],
                 lambda row: ["later", *row[1:]]]
_USAGE_FAULTS = [lambda row: row[:10], lambda row: row[:2],
                 lambda row: [*row[:10], "inf"],
                 lambda row: [*row[:10], "big"]]


@st.composite
def _spoiled_tables(draw):
    """Good tables with one shard spoiled: the table, the shard's index, the
    1-based row a row fault hits (None for a stream fault), and the
    tables."""
    events, usage = _good_tables(draw(st.integers(2, 30)))
    table = draw(st.sampled_from(["task_events", "task_usage"]))
    shards = events if table == "task_events" else usage
    index = draw(st.integers(0, len(shards) - 1))
    rows = shards[index]
    fault = draw(st.sampled_from(["row", "truncated", "not-utf8"]))
    if fault == "row":
        at = draw(st.integers(0, len(rows) - 1))
        spoil = draw(st.sampled_from(_EVENT_FAULTS if table == "task_events"
                                     else _USAGE_FAULTS))
        rows[at] = spoil(rows[at])
        return table, index, at + 1, events, usage, None
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    data = text.getvalue().encode()
    if fault == "not-utf8":
        at = draw(st.integers(0, len(data)))
        gz = gzip.compress(data[:at] + b"\xff" + data[at:])
    else:
        gz = gzip.compress(data)
        # Any cut but the empty file, which is an empty shard.
        gz = gz[:draw(st.integers(1, len(gz) - 1))]
    return table, index, None, events, usage, gz


class TestShardFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_spoiled_tables())
    def test_a_spoiled_shard_is_named(self, spoiled):
        # A row fault names the shard and its row; a stream that does not
        # decompress or decode names the shard, as no row holds the fault.
        table, index, rowno, events, usage, gz = spoiled
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "trace"
            _write_tables(root, events, usage)
            shard = root / table / f"part-{index:05d}.csv.gz"
            if gz is not None:
                shard.write_bytes(gz)
            with pytest.raises(TraceParseError) as err:
                parse_borg_tables(root)
            error = err.value
            assert error.line == rowno
            if rowno is None:
                assert str(error).startswith(f"{shard}: unreadable shard: ")
            else:
                assert str(error).startswith(f"{shard}: line {rowno}: ")

            out = Path(tmp) / "jobs.csv"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(["scale", "--in", str(root), "--format",
                             "borg_tables", "--out", str(out)])
            assert code == 3
            assert stderr.getvalue() == f"error: {error}\n"
            assert not out.exists()
