"""The 2011-schema shard reader against its five-dict oracle, and fuzzed
shards: every malformed shard is a TraceParseError naming it, and
`epcsched scale` exits 3 on it without writing its output.  The block
reader under it gives the rows of the text-mode reader the oracle uses,
for every block size, at a few reads per block."""

import contextlib
import csv
import gzip
import io
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import borg_oracle
from epcsched import trace
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
# A field a character longer than csv.reader's size limit, in a column
# neither table reads: csv.reader rejects the row before the reader sees it.
_OVERSIZED = "x" * (csv.field_size_limit() + 1)
_EVENT_FAULTS.append(lambda row: [row[0], _OVERSIZED, *row[2:]])
_USAGE_FAULTS.append(lambda row: [row[0], _OVERSIZED, *row[2:]])


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


@pytest.mark.parametrize("table", ["task_events", "task_usage"])
def test_an_uncompressed_shard_is_named(tmp_path, table):
    root = tmp_path / "trace"
    _write_tables(root, *_good_tables(4))
    plain = root / table / "part-00002.csv"
    plain.write_text("0,,7,9,,0,,,,,0.25\n")
    with pytest.raises(TraceParseError) as err:
        parse_borg_tables(root)
    assert str(err.value) == (f"{plain}: uncompressed shard: shards must be "
                              "gzip *.csv.gz files")

    out = tmp_path / "jobs.csv"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["scale", "--in", str(root), "--format", "borg_tables",
                     "--out", str(out)])
    assert code == 3
    assert stderr.getvalue() == f"error: {err.value}\n"
    assert not out.exists()


# Separators, quotes, both line-end characters, and characters of two,
# three and four UTF-8 bytes.
_CHARS = st.sampled_from(list('a7,"\r\n é€\U0001d11e'))


@st.composite
def _shard_texts(draw):
    """A shard's text: rows csv.writer quotes and ends with "\\n",
    "\\r\\n" or "\\r", perhaps with the last line end cut off, or any
    text."""
    if draw(st.booleans()):
        return draw(st.text(_CHARS, max_size=60))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = io.StringIO()
    csv.writer(text, lineterminator=ending,
               quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                             csv.QUOTE_ALL]))).writerows(
        draw(st.lists(st.lists(st.text(_CHARS, max_size=6), max_size=4),
                      max_size=6)))
    text = text.getvalue()
    return text.removesuffix(ending) if draw(st.booleans()) else text


def _block_rows(shard: Path):
    """The shard's (row number, row) pairs from the block reader, or its
    error."""
    try:
        with trace._shard_reader(shard) as rows:
            return list(rows)
    except TraceParseError as exc:
        return "error", str(exc), exc.line


def _text_rows(shard: Path):
    """The same from the text-mode reader of the oracle, which reads every
    shard of the shard's directory."""
    try:
        return [(rowno, row)
                for _, rowno, row in borg_oracle._shard_rows(shard.parent)]
    except TraceParseError as exc:
        return "error", str(exc), exc.line


class TestShardBlocks:
    """Blocks of a few bytes cut quoted fields, characters and "\\r\\n"
    at every place, and the rows stay those of gzip.open(..., "rt",
    newline="")."""

    @settings(max_examples=400, deadline=None)
    @given(_shard_texts(), st.integers(1, 9))
    @example("", 1)
    @example('a,"b\r\nc"\r\n\u20ac,\U0001d11e\r', 2)
    def test_blocks_give_the_text_layers_rows(self, text, block):
        with tempfile.TemporaryDirectory() as tmp:
            shard = Path(tmp) / "part-00000.csv.gz"
            shard.write_bytes(gzip.compress(text.encode()))
            with mock.patch.object(trace, "_SHARD_BLOCK", block):
                assert _block_rows(shard) == _text_rows(shard)

    @settings(max_examples=200, deadline=None)
    @given(_shard_texts(), st.integers(1, 9), st.data())
    def test_a_fault_after_the_first_block_names_the_shard(self, text, block,
                                                           data):
        # Bytes that are not UTF-8 past the first block, or a second gzip
        # member cut short, after a first one longer than a block.
        payload = b"a,b\n" * 3 + text.encode()
        if data.draw(st.booleans()):
            at = data.draw(st.integers(block, len(payload)))
            bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"]))
            gz = gzip.compress(payload[:at] + bad + payload[at:])
        else:
            rest = gzip.compress(b"c,d\n")
            gz = (gzip.compress(payload)
                  + rest[:data.draw(st.integers(1, len(rest) - 1))])
        with tempfile.TemporaryDirectory() as tmp:
            shard = Path(tmp) / "part-00000.csv.gz"
            shard.write_bytes(gz)
            with mock.patch.object(trace, "_SHARD_BLOCK", block):
                got = _block_rows(shard)
            expected = _text_rows(shard)
        # The decoder's message gives a position within the block it
        # decoded, which the two readers cut differently.
        for error, message, line in (got, expected):
            assert error == "error" and line is None
            assert message.startswith(f"{shard}: unreadable shard: ")


def test_a_shard_costs_a_few_reads_per_block(tmp_path, monkeypatch):
    # The text layer reads `closed` once per line and `read1` once per
    # 8 KiB chunk; the block reader calls `read` once per block, and each
    # call reads `closed` once.
    counts = Counter()

    class CountingGzipFile(gzip.GzipFile):
        def read(self, size=-1):
            counts["read"] += 1
            return super().read(size)

        def read1(self, size=-1):
            counts["read1"] += 1
            return super().read1(size)

        @property
        def closed(self):
            counts["closed"] += 1
            return super().closed

    data = "".join(f"{i},,7,{i},,0,,,,,0.25\n"
                   for i in range(20_000)).encode()
    shard = tmp_path / "task_events" / "part-00000.csv.gz"
    shard.parent.mkdir()
    shard.write_bytes(gzip.compress(data))
    monkeypatch.setattr(gzip, "GzipFile", CountingGzipFile)
    assert parse_borg_tables(tmp_path) == []  # tasks that never finish
    blocks = -(-len(data) // trace._SHARD_BLOCK)
    assert blocks >= 4
    assert counts["read"] + counts["read1"] >= blocks  # the patch counts
    for name in ("read", "read1", "closed"):
        assert counts[name] <= blocks + 4, (name, counts)
