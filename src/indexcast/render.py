"""Table rendering in text, CSV, and Markdown.

Display precision matches the source tables: index levels round to
integers and percentages to two decimals.  Full precision renders every
float with repr so values survive a round trip through re-ingestion.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING

from .series import MONTH_ABBR

if TYPE_CHECKING:  # annotations only: rendering a table loads no numpy
    from .decompose import DecompositionResult
    from .evaluate import HypothesisReport, MethodReport, StabilityRow

LEVEL = "level"      # index points: integers on display
PERCENT = "percent"  # percentages: 2 decimals on display


def _fmt(value, kind, precision):
    if value is None:
        return ""
    if precision == "full":
        return repr(float(value))
    if kind is LEVEL:
        return f"{value:.0f}"
    return f"{value:.2f}"


def _emit(header, rows, fmt):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(" --- " for _ in header) + "|"]
        lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "text":
        table = [list(header)] + [[str(c) for c in row] for row in rows]
        widths = [max(len(r[i]) for r in table) for i in range(len(header))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown output format {fmt!r}")


def render_decomposition(result: DecompositionResult, fmt: str = "text",
                         precision: str = "display") -> str:
    """Year/month/aggregate/trend/seasonal/random table, blanks where undefined."""
    rows = []
    for i, stamp in enumerate(result.source.months()):
        month = stamp.month if fmt == "csv" else MONTH_ABBR[stamp.month_index]
        rows.append([
            stamp.year,
            month,
            _fmt(result.source.values[i], LEVEL, precision),
            _fmt(result.trend[i], LEVEL, precision),
            _fmt(result.seasonal[i], LEVEL, precision),
            _fmt(result.random[i], LEVEL, precision),
        ])
    return _emit(["year", "month", "aggregate", "trend", "seasonal", "random"],
                 rows, fmt)


def render_method_report(report: MethodReport, fmt: str = "text",
                         precision: str = "display") -> str:
    """Month/actual/forecast/ape rows plus a summary footer line."""
    rows = [[str(r.month),
             _fmt(r.actual, LEVEL, precision),
             _fmt(r.forecast, LEVEL, precision),
             _fmt(r.ape, PERCENT, precision)] for r in report.rows]
    s = report.summary
    footer = (f"# method {report.method_id}: "
              f"min={_fmt(s.min, PERCENT, precision)} "
              f"max={_fmt(s.max, PERCENT, precision)} "
              f"mean={_fmt(s.mean, PERCENT, precision)} "
              f"sd={_fmt(s.sd, PERCENT, precision)}")
    return _emit(["month", "actual", "forecast", "ape"], rows, fmt) + footer + "\n"


def render_stability(rows: tuple[StabilityRow, ...], fmt: str = "text",
                     precision: str = "display") -> str:
    """Two-window trend/seasonal/sum columns plus the signed variation."""
    table = [[r.month.year,
              r.month.month if fmt == "csv" else MONTH_ABBR[r.month.month_index],
              _fmt(r.trend_a, LEVEL, precision),
              _fmt(r.seasonal_a, LEVEL, precision),
              _fmt(r.sum_a, LEVEL, precision),
              _fmt(r.trend_b, LEVEL, precision),
              _fmt(r.seasonal_b, LEVEL, precision),
              _fmt(r.sum_b, LEVEL, precision),
              _fmt(r.variation_pct, PERCENT, precision)] for r in rows]
    return _emit(["year", "month", "trend_1", "seasonal_1", "sum_1",
                  "trend_2", "seasonal_2", "sum_2", "variation_pct"],
                 table, fmt)


def render_hypotheses(report: HypothesisReport, precision: str = "display") -> str:
    """Amplitude metrics and the two verdict lines."""
    lines = [
        "seasonal amplitude: series1="
        f"{_fmt(report.seasonal_amplitude_1, PERCENT, precision)}% "
        f"series2={_fmt(report.seasonal_amplitude_2, PERCENT, precision)}%",
        "random amplitude:   series1="
        f"{_fmt(report.random_amplitude_1, PERCENT, precision)}% "
        f"series2={_fmt(report.random_amplitude_2, PERCENT, precision)}%",
        f"verdict (i)  series1 more seasonal: {report.first_more_seasonal}",
        f"verdict (ii) series2 more random:   {report.second_more_random}",
    ]
    return "\n".join(lines) + "\n"
