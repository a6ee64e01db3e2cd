"""Independent brute-force implementations used only as test oracles.

Everything here is written with explicit loops and shares no code with the
library (the daily-CSV reader raises the library's exception types, so that
tests can compare failures too).  Tests compare library output against these
to catch agreement failures in either direction.
"""

import csv
import datetime
import math

from indexcast.errors import (ComputationError, EmptyInputError,
                              GapInSeriesError, ParseError)


def cma_trend(values):
    """2x12 centered moving average by direct summation; None where undefined."""
    n = len(values)
    out = [None] * n
    for t in range(6, n - 6):
        total = 0.5 * values[t - 6] + 0.5 * values[t + 6]
        for j in range(t - 5, t + 6):
            total += values[j]
        out[t] = total / 12.0
    return out


def decompose(values, start_month_index):
    """Additive decomposition with explicit loops.

    Returns (trend, seasonal_indices, seasonal, random); indices are keyed
    by calendar month starting at January.
    """
    n = len(values)
    trend = cma_trend(values)
    detrended_by_month = [[] for _ in range(12)]
    for t in range(n):
        if trend[t] is not None:
            m = (start_month_index + t) % 12
            detrended_by_month[m].append(values[t] - trend[t])
    raw = [sum(b) / len(b) for b in detrended_by_month]
    center = sum(raw) / 12.0
    indices = [r - center for r in raw]
    seasonal = [indices[(start_month_index + t) % 12] for t in range(n)]
    random = [None if trend[t] is None else values[t] - trend[t] - seasonal[t]
              for t in range(n)]
    return trend, indices, seasonal, random


def hw_initial_state(values, start_month_index):
    """Decomposition-based starting state, mirroring the library's definition
    with independent code: line fit through the first 24 months' moving
    average, detrended column means for the seasonal figures."""
    y = values[:24]
    trend = cma_trend(y)  # defined for t = 6..17
    pairs = [(t - 5, trend[t]) for t in range(6, 18)]  # x = 1..12
    n = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(v for _, v in pairs)
    sxx = sum(x * x for x, _ in pairs)
    sxy = sum(x * v for x, v in pairs)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    level = (sy - slope * sx) / n
    buckets = [[] for _ in range(12)]
    for t in range(6, 18):
        buckets[(start_month_index + t) % 12].append(y[t] - trend[t])
    raw = [sum(b) / len(b) for b in buckets]
    center = sum(raw) / 12.0
    seasonal = [r - center for r in raw]
    return level, slope, seasonal


def hw_sse(values, start_month_index, alpha, beta, gamma):
    """One-step SSE: recursions warm up over the second year, scoring
    starts at observation 25."""
    level, slope, seasonal = hw_initial_state(values, start_month_index)
    seas = {m: seasonal[m] for m in range(12)}
    total = 0.0
    for t in range(12, len(values)):
        m = (start_month_index + t) % 12
        previous = seas[m]
        prediction = level + slope + previous
        if t >= 24:
            err = values[t] - prediction
            total += err * err
        new_level = alpha * (values[t] - previous) + (1 - alpha) * (level + slope)
        slope = beta * (new_level - level) + (1 - beta) * slope
        seas[m] = gamma * (values[t] - new_level) + (1 - gamma) * previous
        level = new_level
    return total


def css(diffed, p, q, ar, ma, mu):
    """Conditional sum of squares with pre-sample innovations set to zero."""
    w = [v - mu for v in diffed]
    n = len(w)
    e = [0.0] * n
    total = 0.0
    for t in range(p, n):
        acc = w[t]
        for i in range(1, p + 1):
            acc -= ar[i - 1] * w[t - i]
        for j in range(1, q + 1):
            if t - j >= p:
                acc -= ma[j - 1] * e[t - j]
        e[t] = acc
        total += acc * acc
    return total


def arma_forecast_on_diffs(z_hist, e_hist, p, q, ar, ma, horizon):
    """Zero-innovation simulation of the ARMA recursion, explicit loops."""
    z = list(z_hist)
    e = list(e_hist)
    out = []
    for _ in range(horizon):
        acc = 0.0
        for i in range(1, p + 1):
            acc += ar[i - 1] * z[len(z) - i]
        for j in range(1, q + 1):
            acc += ma[j - 1] * e[len(e) - j]
        z.append(acc)
        e.append(0.0)
        out.append(acc)
    return out


def daily_csv_monthly_means(path):
    """A ``date,value`` CSV's monthly means: every row is parsed into a list
    first, then summed per month in file order in a dict.  A row's line
    number is ``csv.reader.line_num`` after it, the physical line it ends
    on.

    Returns ((first year, first month), means); raises what the library
    reader raises, with the same message and line number.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise EmptyInputError(f"{path} is empty")
    (_, header), *rows = rows
    if [c.strip().lower() for c in header[:2]] != ["date", "value"]:
        raise ParseError(path, 1, f"expected header 'date,value', got {header!r}")
    parsed = []
    for line_number, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise ParseError(path, line_number, f"expected 2 columns, got {row!r}")
        try:
            date = datetime.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(path, line_number, f"bad ISO date: {row[0]!r}") from None
        try:
            value = float(row[1])
        except ValueError:
            raise ParseError(path, line_number,
                             f"not a number: {row[1]!r}") from None
        if not math.isfinite(value):
            raise ParseError(path, line_number, f"non-finite value: {row[1]!r}")
        parsed.append((date, value))
    sums, counts = {}, {}
    for date, value in parsed:
        key = (date.year, date.month)
        sums[key] = sums.get(key, 0.0) + value
        counts[key] = counts.get(key, 0) + 1
    if not sums:
        raise EmptyInputError("no daily observations")
    first, last = min(sums), max(sums)
    year, month = first
    means = []
    while (year, month) <= last:
        name = f"{year:04d}-{month:02d}"
        if (year, month) not in sums:
            raise GapInSeriesError(f"no observations in {name}")
        mean = sums[year, month] / counts[year, month]
        if not math.isfinite(mean):
            raise ComputationError(f"mean of {name} is not finite: {mean}")
        means.append(mean)
        year, month = (year, month + 1) if month < 12 else (year + 1, 1)
    return first, means
