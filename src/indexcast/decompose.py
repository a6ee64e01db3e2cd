"""Classical additive decomposition of a monthly series.

The trend is a 2x12 centered moving average (13 weights, halves at the
ends), so it is undefined for the first and last six months.  Seasonal
indices are the calendar-month means of the detrended values, centered to
sum to zero, and repeat identically every year.  The random component is
whatever remains, so trend + seasonal + random reconstructs the series
exactly wherever the trend is defined.  Holt-Winters starts from the same
trend and indices on a series's first two years; ``holtwinters`` imports
the two private helpers for that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, SeriesTooShortError
from .series import MonthlyTimeSeries, MonthStamp

_CMA_WEIGHTS = np.concatenate(([0.5], np.ones(11), [0.5])) / 12.0


@dataclass(frozen=True)
class DecompositionResult:
    """Aligned components of an additive decomposition.

    ``trend`` and ``random`` hold None where the centered moving average is
    undefined (first six and last six positions); ``seasonal`` is defined
    everywhere and repeats with period 12.  ``seasonal_indices`` are keyed
    by calendar month, January first.
    """

    source: MonthlyTimeSeries
    trend: tuple[float | None, ...]
    seasonal: tuple[float, ...]
    seasonal_indices: tuple[float, ...]
    random: tuple[float | None, ...]

    def trend_series(self) -> MonthlyTimeSeries:
        """The defined part of the trend as its own monthly series."""
        n = len(self.source)
        return MonthlyTimeSeries(self.source.start.offset(6),
                                 tuple(self.trend[6:n - 6]))

    def seasonal_index_for(self, stamp: MonthStamp) -> float:
        return self.seasonal_indices[stamp.month_index]


def _cma_trend(values) -> np.ndarray:
    """2x12 centered moving average where it is defined: value k is the
    trend at position 6 + k, for positions 6..n-7 of the n `values`.

    Callers pass at least 24 months, so twelve or more values are defined.
    """
    return np.convolve(np.asarray(values), _CMA_WEIGHTS, mode="valid")


def _seasonal_indices(series: MonthlyTimeSeries,
                      trend: np.ndarray) -> tuple[float, ...]:
    """Zero-sum seasonal indices from the detrended series, January first.

    `trend` is ``_cma_trend``'s output, so value k detrends position 6 + k;
    positions past its end are not read, so `series` may run longer.  The
    raw index for a calendar month is the mean of the detrended values
    falling in that month; the twelve raw indices are then centered.  With
    twelve or more trend values every calendar month has one.

    Raises:
        ComputationError: an index is not finite (the detrended sums
            overflow).
    """
    buckets: list[list[float]] = [[] for _ in range(12)]
    for m, y, t in zip(series.month_indices()[6:], series.values[6:],
                       trend.tolist()):
        buckets[m].append(y - t)
    # arrays warn where floats overflow quietly; the isfinite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.array([np.mean(b) for b in buckets])
        centered = raw - raw.mean()
    if not np.isfinite(centered).all():
        raise ComputationError("seasonal indices are not finite; "
                               "the detrended sums overflow")
    return tuple(float(v) for v in centered)


def decompose_additive(series: MonthlyTimeSeries) -> DecompositionResult:
    """Split a series into trend, seasonal, and random components.

    Requires at least two full years so every calendar month has a
    detrended observation.  Raises ComputationError when a seasonal index
    or a random value is not finite.
    """
    if len(series) < 24:
        raise SeriesTooShortError(
            f"decomposition needs at least 24 months, got {len(series)}")
    interior = _cma_trend(series.values)
    indices = _seasonal_indices(series, interior)
    trend = (None,) * 6 + tuple(interior.tolist()) + (None,) * 6
    seasonal = tuple(map(indices.__getitem__, series.month_indices()))
    n = len(series)
    defined = [y - t - s for y, t, s in zip(series.values[6:n - 6], trend[6:n - 6],
                                            seasonal[6:n - 6])]
    if not all(map(math.isfinite, defined)):
        i = next(i for i, r in enumerate(defined, 6) if not math.isfinite(r))
        raise ComputationError(f"random component at {series.start.offset(i)} "
                               "is not finite; the series overflows")
    random = (None,) * 6 + tuple(defined) + (None,) * 6
    return DecompositionResult(series, trend, seasonal, indices, random)


def component_percentage(series: MonthlyTimeSeries,
                         component: tuple[float | None, ...]) -> tuple[float | None, ...]:
    """Component as a signed percentage of the series value, per month.

    None entries pass through.  Raises ZeroDivisionError on a zero series
    value with a defined component, and ComputationError naming the first
    month whose percentage is not finite (a subnormal series value).
    """
    if len(component) != len(series):
        raise ValueError(f"component length {len(component)} does not match "
                         f"series length {len(series)}")
    try:
        percentages = tuple([None if c is None else c / y * 100.0
                             for c, y in zip(component, series.values)])
    except ZeroDivisionError:
        i = next(i for i, (c, y) in enumerate(zip(component, series.values))
                 if c is not None and y == 0)
        raise ZeroDivisionError(
            f"series value is zero at {series.start.offset(i)}") from None
    if not all(map(math.isfinite, filter(None, percentages))):  # skips None and 0.0
        i = next(i for i, p in enumerate(percentages)
                 if p is not None and not math.isfinite(p))
        raise ComputationError(f"component percentage at {series.start.offset(i)} "
                               f"is not finite: series value {series.values[i]!r}")
    return percentages
