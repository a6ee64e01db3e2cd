import csv
import io
import random
import re

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcast import (MonthStamp, decompose_additive, make_series,
                       structural_stability)
from indexcast.decompose import DecompositionResult
from indexcast.evaluate import (ErrorSummary, ForecastRow, MethodReport,
                                StabilityRow, _summarize_errors)
from indexcast.render import (render_decomposition, render_hypotheses,
                              render_method_report, render_stability)
from indexcast.series import MONTH_ABBR
from indexcast.svgchart import Line, Panel, render_chart


def small_report():
    rows = (ForecastRow(MonthStamp(2015, 1), 10027.0, 9451.0, 5.744),
            ForecastRow(MonthStamp(2015, 2), 10502.0, 9146.0, 12.912))
    return MethodReport("I", rows, _summarize_errors([r.ape for r in rows]))


class TestRenderDecomposition:
    def test_csv_layout_and_blanks(self, cd_series):
        text = render_decomposition(decompose_additive(cd_series), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["year", "month", "aggregate", "trend", "seasonal", "random"]
        assert len(rows) == 73
        jan_2010 = rows[1]
        assert jan_2010[:3] == ["2010", "1", "3890"]
        assert jan_2010[3] == "" and jan_2010[5] == ""  # blank trend/random
        jul_2010 = rows[7]
        assert jul_2010[3] == "5248" and jul_2010[4] == "53" and jul_2010[5] == "-216"
        dec_2015 = rows[72]
        assert dec_2015[3] == "" and dec_2015[5] == ""

    def test_text_and_markdown_use_month_names(self, cd_series):
        d = decompose_additive(cd_series)
        assert "Jul" in render_decomposition(d, "text")
        md = render_decomposition(d, "markdown")
        assert md.startswith("| year | month |")
        assert "| Jul |" in md

    def test_full_precision_round_trips(self, cd_series):
        text = render_decomposition(decompose_additive(cd_series), "csv",
                                    precision="full")
        rows = list(csv.reader(io.StringIO(text)))[1:]
        rebuilt = tuple(float(r[2]) for r in rows)
        assert rebuilt == cd_series.values


class TestRenderMethodReport:
    def test_rows_and_summary_footer(self):
        text = render_method_report(small_report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "month,actual,forecast,ape"
        assert lines[1] == "2015-01,10027,9451,5.74"
        assert lines[-1].startswith("# method I: min=5.74 max=12.91")

    def test_markdown(self):
        text = render_method_report(small_report(), "markdown")
        assert "| 2015-01 | 10027 | 9451 | 5.74 |" in text


class TestRenderStability:
    def test_signed_variation_column(self, sc_series):
        rows = structural_stability(
            sc_series, (MonthStamp(2010, 1), MonthStamp(2014, 12)),
            (MonthStamp(2011, 1), MonthStamp(2015, 12)))
        text = render_stability(rows, "csv")
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][-1] == "variation_pct"
        assert len(parsed) == 37
        octs = [r for r in parsed if r[0] == "2011" and r[1] == "10"]
        assert float(octs[0][-1]) == pytest.approx(-4.01, abs=0.05)


@pytest.mark.parametrize("precision", ["display", "full"])
@pytest.mark.parametrize("table", ["decomposition", "stability", "method_report"])
def test_csv_markdown_and_text_hold_the_same_cells(table, precision, cd_series,
                                                   sc_series):
    render, value = {
        "decomposition": (render_decomposition, decompose_additive(cd_series)),
        "stability": (render_stability, structural_stability(sc_series)),
        "method_report": (render_method_report, small_report()),
    }[table]

    def table_lines(fmt):  # the method report's footer line is not a row
        lines = render(value, fmt, precision).splitlines()
        return lines[:-1] if table == "method_report" else lines

    csv_text = "".join(line + "\n" for line in table_lines("csv"))
    from_csv = list(csv.reader(io.StringIO(csv_text)))
    # csv.writer quotes only a cell that needs it: equal bytes mean none does
    rewritten = io.StringIO()
    csv.writer(rewritten, lineterminator="\n").writerows(from_csv)
    assert rewritten.getvalue() == csv_text
    if from_csv[0][1] == "month":  # CSV numbers the months the others name
        for row in from_csv[1:]:
            row[1] = MONTH_ABBR[int(row[1]) - 1]

    markdown = table_lines("markdown")
    assert markdown[1] == "|" + "|".join([" --- "] * len(from_csv[0])) + "|"
    from_markdown = [[cell.strip() for cell in line.split("|")[1:-1]]
                     for line in markdown[:1] + markdown[2:]]

    text = table_lines("text")
    ends = [m.end() for m in re.finditer(r"\S+", text[0])]
    from_text = [[line[a:b].strip() for a, b in zip([0] + ends, ends)]
                 for line in text]

    assert len(from_csv) > 2
    assert from_csv == from_markdown == from_text


def test_unknown_output_format_is_refused(cd_series):
    for render, table in ((render_decomposition, decompose_additive(cd_series)),
                          (render_method_report, small_report()),
                          (render_stability, structural_stability(cd_series))):
        with pytest.raises(ValueError, match="^unknown output format 'html'$"):
            render(table, "html")


def test_unknown_precision_is_refused(cd_series, sc_series):
    from indexcast import compare_hypotheses
    for render, table in ((render_decomposition, decompose_additive(cd_series)),
                          (render_method_report, small_report()),
                          (render_stability, structural_stability(cd_series))):
        with pytest.raises(ValueError, match="^unknown precision 'Full'$"):
            render(table, "csv", precision="Full")
    with pytest.raises(ValueError, match="^unknown precision 'Full'$"):
        render_hypotheses(compare_hypotheses(cd_series, sc_series), "Full")


class TestRenderHypotheses:
    def test_verdict_lines(self, cd_series, sc_series):
        from indexcast import compare_hypotheses
        text = render_hypotheses(compare_hypotheses(cd_series, sc_series))
        assert "verdict (i)" in text and "verdict (ii)" in text
        assert "series2 more random:   True" in text


class TestSvgChart:
    def panels(self, result):
        return [
            Panel("aggregate", (Line("aggregate", result.source.values),)),
            Panel("trend", (Line("trend", result.trend),)),
            Panel("seasonal", (Line("seasonal", result.seasonal),)),
            Panel("random", (Line("random", result.random),)),
        ]

    def test_deterministic_bytes(self, cd_series):
        result = decompose_additive(cd_series)
        labels = [str(m) for m in cd_series.months()]
        a = render_chart(self.panels(result), labels, title="t")
        b = render_chart(self.panels(result), labels, title="t")
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")

    def test_gaps_split_polylines(self):
        chart = render_chart([Panel("x", (Line("x", (1.0, None, 2.0, 3.0)),))],
                             ["a", "b", "c", "d"], "t")
        assert chart.count("<circle") == 1  # the isolated point
        assert chart.count("<polyline") == 1

    def test_well_formed_xml(self, cd_series):
        import xml.etree.ElementTree as ET
        result = decompose_additive(cd_series)
        labels = [str(m) for m in cd_series.months()]
        ET.fromstring(render_chart(self.panels(result), labels, title="<&>"))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_chart([], [], "t")

    @pytest.mark.parametrize("lines", [(Line("a", (None, None)),), (Line("a", ()),), ()],
                             ids=["undefined", "empty", "no_line"])
    @pytest.mark.parametrize("alone", [False, True], ids=["after_ok", "alone"])
    def test_panel_without_a_defined_value_is_named(self, lines, alone):
        panels = [Panel("p", lines)]
        if not alone:
            panels.insert(0, Panel("ok", (Line("a", (1.0, 2.0)),)))
        with pytest.raises(ValueError, match="^panel 'p' has no defined value$"):
            render_chart(panels, ["a", "b"], "t")

    def test_constant_line_is_padded_around_its_value(self):
        chart = render_chart([Panel("c", (Line("c", (5.0, 5.0, 5.0)),))],
                             ["a", "b", "c"], "t")
        # the axis spans 5 -/+ 1, padded by 5%: labels 4, 5 and 6, and the
        # line runs through the middle of the panel (y 52..210)
        assert re.findall(r'text-anchor="end"[^>]*>(-?\d+)<', chart) == ["4", "5", "6"]
        assert 'points="72.00,131.00 464.00,131.00 856.00,131.00"' in chart

    def test_one_point_is_centred(self):
        chart = render_chart([Panel("one", (Line("one", (7.0,)),))], ["2010-01"],
                             "t")
        assert '<circle cx="464.00" cy="131.00"' in chart
        assert re.search(r'<text x="464.00" [^>]*>2010-01</text>', chart)


# the byte-identity tests below compare every table format and precision,
# and the chart, with the loop-written copies in ``oracles``
FORMATS = ("csv", "markdown", "text")
PRECISIONS = ("display", "full")
NAMES = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


@st.composite
def value_lines(draw, n, gaps=True):
    """`n` values: random, constant or one defined point, of either sign
    and magnitudes from 0.001 to 1e12, with None runs when `gaps`."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from((1e-3, 1.0, 1e4, 1e12)))
    shape = draw(st.sampled_from(("random", "random", "constant", "single")))
    low = -scale if draw(st.booleans()) else 0.0
    if shape == "constant":
        values = [rng.uniform(low, scale)] * n
    else:
        values = [rng.uniform(low, scale) for _ in range(n)]
    if shape == "single" and gaps:
        keep = rng.randrange(n)
        return [v if i == keep else None for i, v in enumerate(values)]
    for _ in range(draw(st.integers(0, 4)) if gaps else 0):
        at = rng.randrange(n)
        for i in range(at, min(n, at + rng.randint(1, 12))):
            values[i] = None
    return values


def month_cells(start, n, fmt):
    months = [start.offset(i) for i in range(n)]
    return [[m.year, m.month if fmt == "csv" else NAMES[m.month - 1]]
            for m in months]


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(1, 300),
       start=st.builds(MonthStamp, st.integers(1, 9999), st.integers(1, 12)))
def test_decomposition_table_is_the_loop_written_table(data, n, start):
    source = make_series(start, data.draw(value_lines(n, gaps=False)))
    trend, random_ = (tuple(data.draw(value_lines(n))) for _ in range(2))
    seasonal = tuple(data.draw(value_lines(n, gaps=False)))
    result = DecompositionResult(source, trend, seasonal, seasonal[:12], random_)
    for fmt in FORMATS:
        rows = [cells + list(values) for cells, values in zip(
            month_cells(start, n, fmt),
            zip(source.values, trend, seasonal, random_))]
        for precision in PRECISIONS:
            assert render_decomposition(result, fmt, precision) == oracles.table(
                ["year", "month", "aggregate", "trend", "seasonal", "random"],
                rows, [None, None, 0, 0, 0, 0], fmt, precision)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(1, 300),
       start=st.builds(MonthStamp, st.integers(1, 9999), st.integers(1, 12)))
def test_stability_table_is_the_loop_written_table(data, n, start):
    columns = [data.draw(value_lines(n)) for _ in range(7)]
    stability = tuple(StabilityRow(start.offset(i), *values)
                      for i, values in enumerate(zip(*columns)))
    for fmt in FORMATS:
        rows = [cells + list(values) for cells, values in zip(
            month_cells(start, n, fmt), zip(*columns))]
        for precision in PRECISIONS:
            assert render_stability(stability, fmt, precision) == oracles.table(
                ["year", "month", "trend_1", "seasonal_1", "sum_1", "trend_2",
                 "seasonal_2", "sum_2", "variation_pct"],
                rows, [None, None, 0, 0, 0, 0, 0, 0, 2], fmt, precision)


@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(1, 300),
       start=st.builds(MonthStamp, st.integers(1, 9999), st.integers(1, 12)))
def test_method_report_is_the_loop_written_table(data, n, start):
    columns = [data.draw(value_lines(n)) for _ in range(3)]
    summary = data.draw(value_lines(4, gaps=False))
    report = MethodReport("VI", tuple(
        ForecastRow(start.offset(i), *values) for i, values in enumerate(zip(*columns))),
        ErrorSummary(*summary))
    rows = [[f"{m.year:04d}-{m.month:02d}", *values] for m, values in zip(
        [start.offset(i) for i in range(n)], zip(*columns))]
    for fmt in FORMATS:
        for precision in PRECISIONS:
            cells = oracles.table("abcd", [summary], [2] * 4, "csv", precision)
            footer = "# method VI: min={} max={} mean={} sd={}\n".format(
                *cells.splitlines()[1].split(","))
            assert render_method_report(report, fmt, precision) == oracles.table(
                ["month", "actual", "forecast", "ape"], rows, [None, 0, 0, 2],
                fmt, precision) + footer


TITLES = st.text(alphabet='ab &<>"', max_size=6)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(1, 300), title=TITLES, prefix=TITLES)
def test_chart_is_the_loop_written_chart(data, n, title, prefix):
    panels = []
    for _ in range(data.draw(st.integers(1, 4))):
        lines = [(data.draw(TITLES), data.draw(value_lines(data.draw(st.integers(1, n)))))
                 for _ in range(data.draw(st.integers(1, 3)))]
        panels.append((data.draw(TITLES), lines))
    labels = [f"{prefix}{i}" for i in range(n)]
    chart = [Panel(t, tuple(Line(*line) for line in lines)) for t, lines in panels]
    try:
        want = oracles.svg_chart(panels, labels, title)
    except ValueError as exc:  # a panel without a defined value
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            render_chart(chart, labels, title)
        return
    assert render_chart(chart, labels, title) == want
