"""Calendar-anchored monthly series and daily-to-monthly aggregation.

A :class:`MonthlyTimeSeries` stores one value per calendar month with no
gaps; contiguity is guaranteed by construction (a start month plus an
ordered tuple of values).  All types are immutable, so instances can be
shared freely across threads.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (ComputationError, EmptyInputError, GapInSeriesError,
                     OutOfRangeError)

MONTH_ABBR = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
              "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

# the paper's method ids with the engine and protocol each one runs;
# ``evaluate`` runs them, and the CLI reads the ids from here without
# loading the models
METHODS = {"I": ("holt_winters", "fixed"), "II": ("holt_winters", "rolling"),
           "III": ("holt_winters", "trend_seasonal"),
           "IV": ("arima", "fixed"), "V": ("arima", "rolling")}


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month; ordering is (year, month) lexicographic."""

    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12, got {self.month}")

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        """Parse ``YYYY-MM``."""
        try:
            year, month = map(int, text.strip().split("-"))
        except ValueError:
            raise ValueError(f"expected YYYY-MM, got {text!r}") from None
        return cls(year, month)

    def offset(self, months: int) -> "MonthStamp":
        """The month `months` steps after this one (negative steps back)."""
        k = self.year * 12 + (self.month - 1) + months
        return MonthStamp(k // 12, k % 12 + 1)

    def months_until(self, other: "MonthStamp") -> int:
        """Signed number of months from self to other."""
        return (other.year - self.year) * 12 + (other.month - self.month)

    @property
    def month_index(self) -> int:
        """Calendar month as 0-based index (Jan=0 .. Dec=11)."""
        return self.month - 1

    def __str__(self):
        return f"{self.year:04d}-{self.month:02d}"


@dataclass(frozen=True)
class MonthlyTimeSeries:
    """Consecutive monthly values anchored at a start month (period 12)."""

    start: MonthStamp
    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        if not values:
            raise EmptyInputError("monthly series must contain at least one value")
        if not all(map(math.isfinite, values)):
            i, v = next((i, v) for i, v in enumerate(values) if not math.isfinite(v))
            raise ValueError(f"non-finite value at position {i}: {v}")
        object.__setattr__(self, "values", values)

    @property
    def end(self) -> MonthStamp:
        return self.start.offset(len(self.values) - 1)

    def __len__(self):
        return len(self.values)

    def index_of(self, stamp: MonthStamp) -> int:
        i = self.start.months_until(stamp)
        if not 0 <= i < len(self.values):
            raise OutOfRangeError(f"{stamp} outside series span {self.start}..{self.end}")
        return i

    def month_indices(self) -> tuple[int, ...]:
        """Calendar month index (0..11) of each position."""
        n, first = len(self.values), self.start.month_index
        return (tuple(range(12)) * (n // 12 + 2))[first:first + n]

    def months(self) -> tuple[MonthStamp, ...]:
        first = self.start.year * 12 + self.start.month - 1
        return tuple([MonthStamp(k // 12, k % 12 + 1)
                      for k in range(first, first + len(self.values))])


def aggregate_daily_to_monthly(
        daily: Iterable[tuple[datetime.date, float]]) -> MonthlyTimeSeries:
    """Average ``(date, value)`` pairs into a gapless monthly series.

    Each monthly value is the unweighted arithmetic mean of that month's
    values, summed left to right in the order given, also when a month's
    pairs come back after another month's.  The output spans every
    calendar month between the first and the last date; dates need not be
    contiguous or sorted.  The checks below run after the last pair, so an
    error the iterable raises comes first.

    This is the pairs API.  ``fileio.read_daily_csv`` reaches the same
    totals, in file order, through its block pass and its row loop, and
    both end in the same month walk and checks.

    Raises:
        EmptyInputError: no observations supplied.
        GapInSeriesError: a month inside the span has no observations.
        ComputationError: a month's mean is not finite (its sum overflows).
    """
    months: dict[tuple[int, int], tuple[float, int]] = {}
    for date, value in daily:
        key = date.year, date.month
        total, count = months.get(key, (0.0, 0))
        months[key] = (total + value, count + 1)
    return _monthly_means(months)


def _monthly_means(months: dict[tuple[int, int], tuple[float, int]]
                   ) -> MonthlyTimeSeries:
    """The gapless series of each month's ``total / count``, from the first
    to the last ``(year, month)`` key of `months`.

    Raises ``EmptyInputError`` when `months` is empty, ``GapInSeriesError``
    for a month without a key and ``ComputationError`` for a mean that is
    not finite.
    """
    if not months:
        raise EmptyInputError("no daily observations")
    first, last = min(months), max(months)
    keys = [(k // 12, k % 12 + 1)
            for k in range(first[0] * 12 + first[1] - 1, last[0] * 12 + last[1])]
    if len(keys) == len(months):  # every month of the span has a key
        values = [total / count for total, count in map(months.__getitem__, keys)]
        if all(map(math.isfinite, values)):
            return MonthlyTimeSeries(MonthStamp(*first), tuple(values))
    for key in keys:  # raise for the first gap or non-finite mean, in month order
        if key not in months:
            raise GapInSeriesError(f"no observations in {MonthStamp(*key)}")
        total, count = months[key]
        mean = total / count
        if not math.isfinite(mean):
            raise ComputationError(f"mean of {MonthStamp(*key)} is not finite: {mean}")


def slice_window(series: MonthlyTimeSeries, start: MonthStamp,
                 end: MonthStamp) -> MonthlyTimeSeries:
    """Copy the months start..end inclusive into a new series."""
    if start > end:
        raise OutOfRangeError(f"empty window {start}..{end}")
    i = series.index_of(start)
    j = series.index_of(end)
    return MonthlyTimeSeries(start, series.values[i:j + 1])


def make_series(start: MonthStamp | str, values: Sequence[float]) -> MonthlyTimeSeries:
    """Convenience constructor accepting a ``YYYY-MM`` string start."""
    if isinstance(start, str):
        start = MonthStamp.parse(start)
    return MonthlyTimeSeries(start, tuple(values))
