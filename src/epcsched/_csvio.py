"""The file helpers several modules share: `TraceParseError`, `gc_paused`,
the one CSV writer and the header-checked CSV reader with its error
contract.  It names no file or field, and imports only the standard library.
"""

from __future__ import annotations

import csv
import functools
import gc
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable


class TraceParseError(ValueError):
    """Input violates the trace contract.  Carries the 1-based source line;
    the message also names the file, when there is one."""

    def __init__(self, message: str, line: int | None = None,
                 path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")
        self.line = line


def gc_paused(fn):
    """`fn` with CPython's cyclic garbage collector off for the call.

    It wraps the functions that build trace and artifact records.  Each
    keeps objects in proportion to its input, so with the collector on, a
    young collection starts every 700 new objects, and the older
    generations, up to the whole heap, are walked again as they fill:
    several full collections on a 70k-row input.  Those traversals find
    nothing to free.  Reference counting still frees everything these
    functions drop, as they drop it; the pause only postpones the
    collection of cyclic garbage, and the records and the tables they are
    built from hold no cycles, so nothing waits.  The pause is
    process-wide, though: another thread's cyclic garbage waits until the
    call returns.  Mercurial's `util.nogc` pauses the collector in the same
    way while it builds large containers.

    The collector is turned back on only if it was on when the call
    started, so a caller that turned it off keeps it off through nested
    calls and calls that raise.  The wrapper keeps `fn`'s name and sets
    `__wrapped__`; it is applied where `fn` is defined, so every module
    that imports `fn` by name gets the paused version.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


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
def open_write(dest):
    """`dest`, an open file or a path, as a UTF-8 text file to write."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh


def write_csv(dest, fields: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """Write the header `fields`, then the rows, to a CSV file (a path or an
    open file), one newline-ended line each; a None field is written empty."""
    with open_write(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)


@contextmanager
def csv_reader(source, fields: tuple[str, ...]):
    """A csv reader positioned after the header of a CSV file (path or open
    file), which must equal `fields`.  A ValueError that the body raises, or
    a line csv.reader rejects (a field over its size limit, say), is a
    TraceParseError naming the file (a path, or an open file's name) and
    the reader's line, and bytes that are not UTF-8 are one naming the
    file and the line of the first such byte.  An empty source has no
    rows, and a blank line is no row: its reader skips it with
    `filter(None, reader)`."""
    path = (os.fspath(source) if isinstance(source, (str, os.PathLike))
            else getattr(source, "name", None))
    try:
        with _open_text(source) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
                if (header is not None
                        and tuple(h.strip() for h in header) != fields):
                    raise TraceParseError(
                        f"expected header {','.join(fields)}", line=1,
                        path=path)
                yield reader
            except (TraceParseError, UnicodeDecodeError):
                raise
            except (ValueError, csv.Error) as exc:
                raise TraceParseError(str(exc), line=reader.line_num,
                                      path=path) from None
    except UnicodeDecodeError as exc:
        raise TraceParseError(str(exc), line=_undecodable_line(exc, path),
                              path=path) from None


def _undecodable_line(exc: UnicodeDecodeError, path) -> int | None:
    """The 1-based line of the first byte that is not UTF-8, counting "\\n",
    "\\r\\n" and "\\r" line ends as csv.reader does.  A file is decoded a
    chunk at a time, so the byte is found again in the whole file; a source
    with no file name was decoded whole.  None if the file cannot be read
    again or now decodes."""
    data = exc.object
    if isinstance(path, str):
        try:
            data = Path(path).read_bytes()
        except OSError:
            return None
    try:
        data.decode("utf-8")
        return None
    except UnicodeDecodeError as again:
        head = data[:again.start]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def width_error(fields: tuple[str, ...], row: list[str]) -> ValueError:
    return ValueError(f"expected {len(fields)} fields, got {len(row)}")


def duplicate_error(job_id: str, first_line: int) -> ValueError:
    return ValueError(f"duplicate job_id {job_id!r} (first seen on line "
                      f"{first_line})")


def not_a_member(enum: type, value: str) -> ValueError:
    """The ValueError calling `enum` with a value no member has raises."""
    return ValueError(f"{value!r} is not a valid {enum.__qualname__}")
