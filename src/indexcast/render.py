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

# each display kind is its display format string
LEVEL = "{:.0f}"    # index points: integers
PERCENT = "{:.2f}"  # percentages: 2 decimals


def _fmt(value, kind, precision):
    if value is None:
        return ""
    if precision == "full":
        return repr(float(value))
    return kind.format(value)


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


def _month_table(months, columns, fmt, precision):
    """Year and month cells, then one cell per (header, kind, values) column.

    The month is a number in CSV and an abbreviation otherwise.
    """
    cells = [[_fmt(v, kind, precision) for v in values] for _, kind, values in columns]
    names = [m.month if fmt == "csv" else MONTH_ABBR[m.month_index] for m in months]
    return _emit(["year", "month"] + [header for header, _, _ in columns],
                 zip([m.year for m in months], names, *cells), fmt)


def render_decomposition(result: DecompositionResult, fmt: str = "text",
                         precision: str = "display") -> str:
    """Year/month/aggregate/trend/seasonal/random table, blanks where undefined."""
    return _month_table(result.source.months(), [
        ("aggregate", LEVEL, result.source.values), ("trend", LEVEL, result.trend),
        ("seasonal", LEVEL, result.seasonal), ("random", LEVEL, result.random),
    ], fmt, precision)


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
    return _month_table([r.month for r in rows], [
        ("trend_1", LEVEL, [r.trend_a for r in rows]),
        ("seasonal_1", LEVEL, [r.seasonal_a for r in rows]),
        ("sum_1", LEVEL, [r.sum_a for r in rows]),
        ("trend_2", LEVEL, [r.trend_b for r in rows]),
        ("seasonal_2", LEVEL, [r.seasonal_b for r in rows]),
        ("sum_2", LEVEL, [r.sum_b for r in rows]),
        ("variation_pct", PERCENT, [r.variation_pct for r in rows]),
    ], fmt, precision)


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
