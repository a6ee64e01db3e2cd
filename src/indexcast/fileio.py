"""File ingestion and writing for the two supported input formats.

Values format: one finite decimal per line for consecutive months, ``#``
comment lines allowed; the start month is supplied out of band and must
match a ``# start YYYY-MM`` line if the file has one.  Daily CSV: header
``date,value`` with ISO-8601 dates.
"""

from __future__ import annotations

import csv
import datetime
import math
from pathlib import Path
from .errors import DataError, EmptyInputError, ParseError
from .series import DailyObservation, MonthlyTimeSeries, MonthStamp


def read_values_file(path: str | Path, start: MonthStamp) -> MonthlyTimeSeries:
    """Read a values-format file into a series starting at `start`.

    A ``# start YYYY-MM`` line naming another month raises ``DataError``.
    """
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if text.startswith("#"):
                words = text[1:].split()  # a header reads ["start", "YYYY-MM"]
                if len(words) == 2 and words[0] == "start" and words[1] != str(start):
                    raise DataError(f"{path}:{line_number}: {text!r} conflicts "
                                    f"with start month {start}")
                continue
            if not text:
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParseError(path, line_number, f"not a number: {text!r}") from None
            if not math.isfinite(value):
                raise ParseError(path, line_number, f"non-finite value: {text!r}")
            values.append(value)
    if not values:
        raise EmptyInputError(f"no values in {path}")
    return MonthlyTimeSeries(start, tuple(values))


def write_values_file(path: str | Path, series: MonthlyTimeSeries,
                      full_precision: bool = True) -> None:
    """Write a series in values format with the start month as a comment."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# start {series.start}\n")
        for v in series.values:
            handle.write((repr(v) if full_precision else f"{v:.2f}") + "\n")


def read_daily_csv(path: str | Path) -> tuple[DailyObservation, ...]:
    """Read a ``date,value`` CSV with ISO dates into daily observations."""
    out = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EmptyInputError(f"{path} is empty")
        if [c.strip().lower() for c in header[:2]] != ["date", "value"]:
            raise ParseError(path, 1, f"expected header 'date,value', got {header!r}")
        for line_number, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ParseError(path, line_number, f"expected 2 columns, got {row!r}")
            try:
                date = datetime.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ParseError(path, line_number,
                                 f"bad ISO date: {row[0]!r}") from None
            try:
                value = float(row[1])
            except ValueError:
                raise ParseError(path, line_number,
                                 f"not a number: {row[1]!r}") from None
            if not math.isfinite(value):
                raise ParseError(path, line_number, f"non-finite value: {row[1]!r}")
            out.append(DailyObservation(date, value))
    return tuple(out)
