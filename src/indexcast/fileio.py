"""File ingestion and writing for the two supported input formats.

Values format: one finite decimal per line for consecutive months, ``#``
comment lines allowed; the start month comes from the caller or from a
``# start YYYY-MM`` line, and the two must agree when both are given.
Daily CSV: header ``date,value`` with ISO-8601 dates, averaged per calendar
month in one pass that parses each row and adds it to a running total for
the current month, which only this reader keeps; cells may be quoted and
columns after ``value`` are ignored.  Both
readers skip a leading UTF-8 byte order mark (spreadsheets write one) and
raise ``DataError`` naming the file on bytes that are not UTF-8.
"""

from __future__ import annotations

import contextlib
import csv
import datetime
import math
from pathlib import Path
from .errors import DataError, EmptyInputError, MissingStartError, ParseError
from .series import MonthlyTimeSeries, MonthStamp, _monthly_means


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


def read_daily_csv(path: str | Path) -> MonthlyTimeSeries:
    """Read a ``date,value`` CSV with ISO dates into monthly means.

    One loop parses each row and adds it to a running total for the current
    month, with no list of rows in between, and touches its month dict only
    when the month changes; a month whose rows come back later resumes from
    its stored total.  So each month is summed in file order, to the totals
    ``aggregate_daily_to_monthly`` gives for the same pairs.  A row whose
    first two cells are an ISO date and a finite number is parsed once; any
    other row is checked again cell by cell, so a blank row is skipped and a
    bad one raises ``ParseError`` as it is read, before any check on the
    months (a gap, no rows), naming the line the row ends on as counted in
    the file.  Cells may be quoted, and a quoted cell may span lines;
    columns after ``value`` are ignored.  What ``csv.reader`` itself
    rejects, such as a cell over its field size limit (131,072 characters),
    is a ``ParseError`` too.
    """
    parse_date, to_float, isfinite = datetime.date.fromisoformat, float, math.isfinite
    months: dict[tuple[int, int], tuple[float, int]] = {}
    year = month = None
    total, count = 0.0, 0
    with _utf8(path, newline="") as handle:
        rows = csv.reader(handle)
        try:
            header = next(rows, None)
            if header is None:
                raise EmptyInputError(f"{path} is empty")
            if [c.strip().lower() for c in header[:2]] != ["date", "value"]:
                raise ParseError(path, 1,
                                 f"expected header 'date,value', got {header!r}")
            for row in rows:
                try:
                    date, value = parse_date(row[0]), to_float(row[1])
                except (IndexError, ValueError):
                    value = math.nan  # sends the row to the check below
                if not isfinite(value):
                    checked = _checked_row(row, path, rows.line_num)
                    if checked is None:
                        continue
                    date, value = checked
                if date.month != month or date.year != year:
                    if count:
                        months[year, month] = (total, count)
                    year, month = date.year, date.month
                    total, count = months.get((year, month), (0.0, 0))
                total += value
                count += 1
        except csv.Error as exc:
            raise ParseError(path, rows.line_num, str(exc)) from None
    if count:
        months[year, month] = (total, count)
    return _monthly_means(months)
