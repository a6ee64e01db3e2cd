"""Seeded inputs for the benchmark workloads.

Every input is a pure function of a ``random.Random`` built from the
workload seed, so the same seed always gives the same series and files.
The program under test only ever sees what these functions return.
"""

from __future__ import annotations

import datetime
import math
import random


def monthly_values(rng: random.Random, n: int) -> list[float]:
    """Trend + period-12 seasonal + AR(1) noise at index scale (1e3..1e4).

    Shaped like the bundled BSE sector fixtures: a level of a few thousand
    index points, a drift of up to about 1% a month, a seasonal swing of a
    few percent and autocorrelated noise.  Values are quoted to two
    decimals and stay well above zero, so every APE is defined.
    """
    level = rng.uniform(2000.0, 9000.0)
    slope = level * rng.uniform(-0.003, 0.012)
    amplitude = level * rng.uniform(0.01, 0.04)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    phi = rng.uniform(0.3, 0.8)
    sd = level * rng.uniform(0.015, 0.04)
    noise = 0.0
    out = []
    for t in range(n):
        noise = phi * noise + rng.gauss(0.0, sd)
        seasonal = amplitude * math.sin(2.0 * math.pi * t / 12.0 + phase)
        out.append(round(level + slope * t + seasonal + noise, 2))
    return out


def first_quote_day(rng: random.Random) -> datetime.date:
    return datetime.date(1995, 1, 2) + datetime.timedelta(days=rng.randrange(2000))


def daily_quotes(rng: random.Random, day: datetime.date,
                 rows: int) -> list[tuple[datetime.date, str]]:
    """A multiplicative random walk over business days (Monday..Friday) from `day`.

    Returns (date, value text) pairs; the text is what goes into the CSV,
    so a reader that parses it sees exactly the same floats.
    """
    value = rng.uniform(1000.0, 10000.0)
    drift = rng.uniform(-0.0001, 0.0004)
    out = []
    while len(out) < rows:
        if day.weekday() < 5:
            value *= math.exp(rng.gauss(drift, 0.012))
            out.append((day, f"{value:.2f}"))
        day += datetime.timedelta(days=1)
    return out


def write_daily_csv(path, quotes) -> None:
    """Write quotes in the ``date,value`` daily-CSV input format."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("date,value\n")
        for day, text in quotes:
            handle.write(f"{day.isoformat()},{text}\n")


def monthly_means(quotes) -> tuple[tuple[int, int], list[float]]:
    """Reference monthly averages of daily quotes: (first (year, month), means).

    Sums run in file order, the same order a reader of the CSV would use,
    so the means are bit-identical to a correct aggregation.
    """
    sums: dict[tuple[int, int], float] = {}
    counts: dict[tuple[int, int], int] = {}
    for day, text in quotes:
        key = (day.year, day.month)
        sums[key] = sums.get(key, 0.0) + float(text)
        counts[key] = counts.get(key, 0) + 1
    keys = sorted(sums)
    return keys[0], [sums[k] / counts[k] for k in keys]
