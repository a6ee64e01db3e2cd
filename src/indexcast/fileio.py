"""File ingestion and writing for the two supported input formats.

Values format: one finite decimal per line for consecutive months, ``#``
comment lines allowed; the start month comes from the caller or from a
``# start YYYY-MM`` line, and the two must agree when both are given.
Daily CSV: header ``date,value`` with ISO-8601 dates, averaged per calendar
month.  A file that is plain from its header to its last line (two
unquoted cells per row, LF line ends, dates oldest first) is parsed and
summed in blocks by C-level calls; any other file is read from its first
byte by a loop over ``csv.reader`` rows, where cells may be quoted and
columns after ``value`` are ignored, each row checked as it is read and
summed by the rule of ``aggregate_daily_to_monthly``.  The means and
errors are those of the row loop alone.  Both formats' readers skip a
leading UTF-8 byte order mark (spreadsheets write one) and raise
``DataError`` naming the file on bytes that are not UTF-8.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import math
from bisect import bisect_left
from functools import reduce
from operator import add
from pathlib import Path
from .errors import DataError, EmptyInputError, MissingStartError, ParseError
from .series import MonthlyTimeSeries, MonthStamp, _add_pairs, _monthly_means


@contextlib.contextmanager
def _utf8(path, newline=None):
    """`path` open as UTF-8 text, a leading BOM skipped.  Bytes that do not
    decode raise ``DataError`` naming the file: the ``UnicodeDecodeError``
    they raise in reading is a ``ValueError``, which is no data error."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: byte "
                            f"0x{exc.object[exc.start]:02x} does not decode") from None


def _header_month(comment: str) -> MonthStamp | None:
    """The month a ``# start YYYY-MM`` comment names; None for other comments."""
    try:
        word, month = comment[1:].split()
        return MonthStamp.parse(month) if word == "start" else None
    except ValueError:  # not two words, or no month: "# start here"
        return None


def _number(text: str, path, line_number: int) -> float:
    """`text` as a finite float; a ParseError naming the line otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(path, line_number, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, line_number, f"non-finite value: {text!r}")
    return value


def read_values_file(path: str | Path,
                     start: MonthStamp | None = None) -> MonthlyTimeSeries:
    """Read a values-format file into a series starting at `start`.

    Without `start` the file's ``# start YYYY-MM`` line gives the month, and
    a file without one raises ``MissingStartError``.  A ``# start`` line
    naming another month than `start` or an earlier line raises
    ``DataError``.
    """
    values = []
    with _utf8(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if text.startswith("#"):
                month = _header_month(text)
                start = start or month
                if month not in (None, start):
                    raise DataError(f"{path}:{line_number}: {text!r} conflicts "
                                    f"with start month {start}")
            elif text:
                values.append(_number(text, path, line_number))
    if not values:
        raise EmptyInputError(f"no values in {path}")
    if start is None:
        raise MissingStartError(f"{path} names no start month")
    return MonthlyTimeSeries(start, tuple(values))


def values_text(series: MonthlyTimeSeries, full_precision: bool) -> str:
    """A ``# start`` line, then each value as ``repr`` or to two decimals."""
    fmt = repr if full_precision else "{:.2f}".format
    return f"# start {series.start}\n" + "".join(f"{fmt(v)}\n" for v in series.values)


def write_values_file(path: str | Path, series: MonthlyTimeSeries,
                      full_precision: bool = True) -> None:
    """Write a series in values format with the start month as a comment."""
    Path(path).write_text(values_text(series, full_precision), encoding="utf-8")


def _checked_row(row, path, line_number):
    """The ``(date, value)`` of a data row checked cell by cell, or None for
    a blank row: a padded date is stripped, and a short row, a bad date or a
    value that is not a finite number raises ``ParseError`` at
    `line_number`."""
    if not row or (len(row) == 1 and not row[0].strip()):
        return None
    if len(row) < 2:
        raise ParseError(path, line_number, f"expected 2 columns, got {row!r}")
    try:
        date = datetime.date.fromisoformat(row[0].strip())
    except ValueError:
        raise ParseError(path, line_number, f"bad ISO date: {row[0]!r}") from None
    return date, _number(row[1], path, line_number)


# characters per block of whole lines in the plain pass
_BLOCK = 32_768
# bytes.translate's delete set: every byte but "," "\n" and "\r", so that a
# CR, which no plain file holds, fails the marks check
_NOT_MARKS = bytes(b for b in range(256) if b not in b",\n\r")


def _plain_months(handle) -> dict[tuple[int, int], tuple[float, int]] | None:
    """The ``(total, count)`` of each month of `handle`, read from its first
    byte, when the whole file is plain; None otherwise.

    Plain: a ``date,value`` header, LF line ends, exactly one comma on every
    line, no blank line, every cell within the field size limit, ISO dates
    oldest first within each block, and finite values.  A quote in any cell
    fails ``float``, ``fromisoformat`` or the header check.  Each block of
    whole lines is parsed, cut into months with ``bisect_left`` and summed
    by C-level calls; ``reduce(add, ...)`` performs the row loop's ``total
    += value`` additions in file order, so the totals are the same bit for
    bit.  A block that is not plain, or whose bytes do not decode, gives
    None, and so does an empty file: the row loop then reads the file from
    its first byte and names what is wrong.  The pass raises nothing of its
    own.
    """
    months, limit, skip = {}, csv.field_size_limit(), 2
    try:
        while block := handle.read(_BLOCK) + handle.readline():
            text = block[:-1] if block[-1] == "\n" else block
            marks = text.encode().translate(None, _NOT_MARKS)
            if marks != b",\n" * (len(marks) // 2) + b",":
                return None
            fields = text.replace("\n", ",").split(",")
            if ((len(text) > limit and max(map(len, fields)) > limit) or skip
                    and [c.strip().lower() for c in fields[:2]] != ["date", "value"]):
                return None
            dates = list(map(datetime.date.fromisoformat, fields[skip::2]))
            values = list(map(float, fields[skip + 1::2]))
            if sorted(dates) != dates or not math.isfinite(sum(values)):
                return None
            i = skip = 0
            while i < len(dates):
                first = dates[i]
                j = bisect_left(dates, datetime.date(
                    first.year + first.month // 12, first.month % 12 + 1, 1), i)
                total, count = months.get((first.year, first.month), (0.0, 0))
                months[first.year, first.month] = (reduce(add, values[i:j], total),
                                                   count + j - i)
                i = j
    except ValueError:  # a bad date or value, December 9999, bytes that do not decode
        return None
    return None if skip else months


def _row_months(handle, path) -> dict[tuple[int, int], tuple[float, int]]:
    """The ``(total, count)`` of each month of `handle`, read from its first
    byte: a ``csv.reader`` loop checks each row as it is read and
    ``series._add_pairs`` sums it.  Raises what ``read_daily_csv``
    documents."""
    months: dict[tuple[int, int], tuple[float, int]] = {}
    rows = csv.reader(handle)
    try:
        header = next(rows, None)
        if header is None:
            raise EmptyInputError(f"{path} is empty")
        if [c.strip().lower() for c in header[:2]] != ["date", "value"]:
            raise ParseError(path, 1, f"expected header 'date,value', got {header!r}")
        _add_pairs(months, filter(None, (_checked_row(row, path, rows.line_num)
                                         for row in rows)))
    except csv.Error as exc:
        raise ParseError(path, rows.line_num, str(exc)) from None
    return months


def read_daily_csv(path: str | Path) -> MonthlyTimeSeries:
    """Read a ``date,value`` CSV with ISO dates into monthly means.

    A file that is plain from its header to its last line (two unquoted
    cells per row, LF line ends, dates oldest first) is read one block of
    whole lines at a time, each block summed by C-level calls, with no list
    of the file's rows kept.  Any other file, and a pipe, is read from its
    first byte by one loop over ``csv.reader`` rows that checks each row
    and adds it to its month's stored total, by the rule
    ``aggregate_daily_to_monthly`` sums its pairs with.  Either way each
    month is summed in file order, to the totals
    ``aggregate_daily_to_monthly`` gives for the same pairs, and the errors
    are those of the row loop alone.  A blank row is skipped and a bad one
    raises ``ParseError`` as it is read, before any check on the months (a
    gap, no rows), naming the line the row ends on as counted in the file.
    Cells may be quoted, and a quoted cell may span lines; columns after
    ``value`` are ignored.  What ``csv.reader`` itself rejects, such as a
    cell over its field size limit (131,072 characters), is a
    ``ParseError`` too.
    """
    with _utf8(path, newline="") as handle:
        if not handle.seekable():  # a pipe cannot go back to its first byte
            months = _row_months(handle, path)
        elif (months := _plain_months(handle)) is None:
            handle.seek(0)
            months = _row_months(handle, path)
    return _monthly_means(months)
