"""Table rendering in text, CSV, and Markdown.

Display precision matches the source tables: index levels round to
integers and percentages to two decimals.  Full precision renders every
float with repr so values survive a round trip through re-ingestion.  The
formatter is chosen once per column, and any other precision is refused.

Every format is one string of cells per row, joined by commas (CSV),
``|`` (Markdown) or right-justified columns (text).  Joining needs no
quoting: each cell is a formatted number, a month, or a fixed header, so
none holds a comma, a quote or a line break.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .series import MONTH_ABBR

if TYPE_CHECKING:  # annotations only: rendering a table loads no numpy
    from .decompose import DecompositionResult
    from .evaluate import HypothesisReport, MethodReport, StabilityRow

# each display kind is its display format string
LEVEL = "{:.0f}"    # index points: integers
PERCENT = "{:.2f}"  # percentages: 2 decimals


def _cells(values, kind, precision):
    """One column's cells, the formatter chosen once: blank for None,
    `kind` at display precision, the float's repr at full precision."""
    if precision == "full":
        return ["" if v is None else repr(float(v)) for v in values]
    if precision != "display":
        raise ValueError(f"unknown precision {precision!r}")
    fmt = kind.format
    return ["" if v is None else fmt(v) for v in values]


def _emit(header, rows, fmt):
    """The table of `header` and `rows`, every cell already a string."""
    table = [header, *rows]
    if fmt == "csv":
        lines = [",".join(r) for r in table]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(r) + " |" for r in table]
        lines.insert(1, "|" + "|".join(" --- " for _ in header) + "|")
    elif fmt == "text":
        widths = [max(map(len, column)) for column in zip(*table)]
        # a {:>w} field pads a string exactly as rjust(w) does
        line = "  ".join(f"{{:>{w}}}" for w in widths).format
        lines = [line(*r).rstrip() for r in table]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return "\n".join(lines) + "\n"


def _month_table(months, columns, fmt, precision):
    """Year and month cells, then one cell per (header, kind, values) column.

    The month is a number in CSV and an abbreviation otherwise.
    """
    cells = [_cells(values, kind, precision) for _, kind, values in columns]
    names = [str(m) for m in range(1, 13)] if fmt == "csv" else MONTH_ABBR
    return _emit(["year", "month"] + [header for header, _, _ in columns],
                 zip([str(m.year) for m in months],
                     [names[m.month - 1] for m in months], *cells), fmt)


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
    rows = report.rows
    columns = ([str(r.month) for r in rows],
               _cells([r.actual for r in rows], LEVEL, precision),
               _cells([r.forecast for r in rows], LEVEL, precision),
               _cells([r.ape for r in rows], PERCENT, precision))
    s = report.summary
    low, high, mean, sd = _cells((s.min, s.max, s.mean, s.sd), PERCENT, precision)
    return (_emit(["month", "actual", "forecast", "ape"], zip(*columns), fmt)
            + f"# method {report.method_id}: min={low} max={high} mean={mean} sd={sd}\n")


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
    seasonal_1, seasonal_2, random_1, random_2 = _cells(
        (report.seasonal_amplitude_1, report.seasonal_amplitude_2,
         report.random_amplitude_1, report.random_amplitude_2), PERCENT, precision)
    lines = [
        f"seasonal amplitude: series1={seasonal_1}% series2={seasonal_2}%",
        f"random amplitude:   series1={random_1}% series2={random_2}%",
        f"verdict (i)  series1 more seasonal: {report.first_more_seasonal}",
        f"verdict (ii) series2 more random:   {report.second_more_random}",
    ]
    return "\n".join(lines) + "\n"
