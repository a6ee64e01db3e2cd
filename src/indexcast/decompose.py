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


def _cma_trend(series: MonthlyTimeSeries) -> tuple[float | None, ...]:
    """2x12 centered moving average, None outside positions 6..n-7.

    Callers pass at least 24 months, so twelve or more values are defined.
    """
    interior = np.convolve(np.asarray(series.values), _CMA_WEIGHTS, mode="valid")
    return (None,) * 6 + tuple(float(v) for v in interior) + (None,) * 6


def _seasonal_indices(series: MonthlyTimeSeries,
                      trend: tuple[float | None, ...]) -> tuple[float, ...]:
    """Zero-sum seasonal indices from the detrended series, January first.

    The raw index for a calendar month is the mean of the detrended values
    falling in that month; the twelve raw indices are then centered.  With
    24 or more months the trend has twelve consecutive defined values, so
    every calendar month has one.

    Raises:
        ComputationError: an index is not finite (the detrended sums
            overflow).
    """
    months = series.month_indices()
    buckets: list[list[float]] = [[] for _ in range(12)]
    for i, t in enumerate(trend):
        if t is not None:
            buckets[months[i]].append(series.values[i] - t)
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
    trend = _cma_trend(series)
    indices = _seasonal_indices(series, trend)
    months = series.month_indices()
    seasonal = tuple(indices[m] for m in months)
    random = tuple(
        None if t is None else series.values[i] - t - seasonal[i]
        for i, t in enumerate(trend))
    for i, r in enumerate(random):
        if r is not None and not math.isfinite(r):
            raise ComputationError(f"random component at {series.start.offset(i)} "
                                   "is not finite; the series overflows")
    return DecompositionResult(series, trend, seasonal, indices, random)


def component_percentage(series: MonthlyTimeSeries,
                         component: tuple[float | None, ...]) -> tuple[float | None, ...]:
    """Component as a signed percentage of the series value, per month.

    None entries pass through.  Raises ZeroDivisionError on a zero series
    value with a defined component.
    """
    if len(component) != len(series):
        raise ValueError(f"component length {len(component)} does not match "
                         f"series length {len(series)}")
    out = []
    for i, c in enumerate(component):
        if c is None:
            out.append(None)
            continue
        y = series.values[i]
        if y == 0:
            raise ZeroDivisionError(
                f"series value is zero at {series.start.offset(i)}")
        out.append(c / y * 100.0)
    return tuple(out)
