"""The three benchmark workloads: call plans and output checks.

A plan is a sequence of user-facing calls.  Each call runs one public
entry point of the library (an evaluation protocol or ``cli.main``),
counts its operations and has a check that validates what it returned
and yields bytes for the results digest.  Calls look functions up on the
``indexcast`` modules at call time, so the traced run sees them wrapped.

Why each workload exists (see also BENCHMARK.json):

* ``arima_protocol`` - the paper's ARIMA protocol, method IV at origin T
  then method V over the 12 months after T, on both bundled fixtures and
  on seeded series shaped like them.  ``select_order`` does nearly all of
  the work, and training windows repeat the way the protocol repeats them
  (IV's window is V's first; every winner is refit), so optimizer and fit
  reuse changes show here.
* ``hw_protocol`` - methods I, II, III, VI and the hypothesis comparison on
  seeded series of 72..240 months.  Holt-Winters grid and refine dominate
  and grow with length; no ARIMA runs, so an ARIMA-only change should
  leave it unchanged, and the other way round.
* ``cli_io`` - ``indexcast.cli.main`` in-process on seeded daily-quote
  CSVs: ingest with a file write, decompose and compare with SVG plots,
  stability; every output format and both precisions.  No model is
  fitted, so file I/O, aggregation, rendering and the CLI itself, which
  are invisible in the other two, dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
import re
import statistics
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import indexcast
from indexcast import cli, evaluate

import inputs

FIXTURES = ("consumer_durables_monthly.txt", "small_cap_monthly.txt")
FIXTURE_START = indexcast.MonthStamp(2010, 1)
ORIGIN = indexcast.MonthStamp(2014, 12)      # T, the paper's last training month
ROLLING_CALL_MONTHS = 2                      # months per run_rolling call (II, V)
# consecutive pairs average 156 months, so a run's mix of lengths barely
# depends on how many series it completes
HW_LADDER = (72, 240, 120, 192, 96, 216, 144, 168)
HW_START = indexcast.MonthStamp(2001, 1)
CSV_FILES = 4
CSV_ROWS = 4000
FORMATS = ("text", "csv", "markdown")
PRECISIONS = ("display", "full")


class CheckError(Exception):
    """A call returned an output that fails its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class Call:
    """One user-facing call: ``run`` is timed, ``check`` is not."""

    kind: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], bytes]


def plan(name: str, seed: int, root: Path, workdir: Path,
         traced: bool) -> Iterator[list[Call]]:
    """The calls of workload ``name`` in units; endless unless ``traced``.

    A timed run stops only between units, so its mix of calls depends
    little on how fast it went.  The traced plan is fixed and short, so
    that its work counts repeat exactly.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "arima_protocol":
        return _arima_plan(rng, root, traced)
    if name == "hw_protocol":
        return _hw_plan(rng, traced)
    if name == "cli_io":
        return _cli_plan(rng, workdir, traced)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- checks

def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _check_report(report, method_id, months, series=None) -> bytes:
    """Rows match the months, APE recomputes, everything is finite."""
    expect(report.method_id == method_id,
           f"method {report.method_id!r}, expected {method_id!r}")
    expect([r.month for r in report.rows] == months, f"{method_id}: wrong months")
    for r in report.rows:
        expect(_finite(r.actual, r.forecast, r.ape), f"{method_id} {r.month}: not finite")
        if series is not None:
            expect(r.actual == series.values[series.index_of(r.month)],
                   f"{method_id} {r.month}: actual is not the series value")
        ape = abs(r.forecast - r.actual) / abs(r.actual) * 100.0
        expect(math.isclose(r.ape, ape, rel_tol=1e-12, abs_tol=1e-12),
               f"{method_id} {r.month}: APE {r.ape} does not recompute ({ape})")
    apes = [r.ape for r in report.rows]
    s = report.summary
    expect(_finite(s.min, s.max, s.mean, s.sd), f"{method_id}: summary not finite")
    expect(s.min == min(apes) and s.max == max(apes), f"{method_id}: min/max wrong")
    expect(math.isclose(s.mean, statistics.fmean(apes), rel_tol=1e-12)
           and math.isclose(s.sd, statistics.stdev(apes), rel_tol=1e-9),
           f"{method_id}: mean/sd wrong")
    return repr((method_id, [r.forecast for r in report.rows])).encode()


def _check_stability(rows, first_month, count) -> bytes:
    expect(len(rows) == count, f"VI: {len(rows)} rows, expected {count}")
    for k, r in enumerate(rows):
        expect(r.month == first_month.offset(k), f"VI: row {k} month {r.month}")
        expect(_finite(r.trend_a, r.seasonal_a, r.sum_a, r.trend_b, r.seasonal_b,
                       r.sum_b, r.variation_pct), f"VI {r.month}: not finite")
        expect(math.isclose(r.sum_a, r.trend_a + r.seasonal_a, rel_tol=1e-12)
               and math.isclose(r.sum_b, r.trend_b + r.seasonal_b, rel_tol=1e-12),
               f"VI {r.month}: sum is not trend + seasonal")
        variation = (r.sum_b - r.sum_a) / r.sum_a * 100.0
        expect(math.isclose(r.variation_pct, variation, rel_tol=1e-9, abs_tol=1e-12),
               f"VI {r.month}: variation does not recompute")
    return repr([r.variation_pct for r in rows]).encode()


def _check_hypotheses(report) -> bytes:
    s1, s2 = report.seasonal_amplitude_1, report.seasonal_amplitude_2
    r1, r2 = report.random_amplitude_1, report.random_amplitude_2
    expect(_finite(s1, s2, r1, r2) and min(s1, s2, r1, r2) > 0.0,
           "compare: amplitudes must be finite and positive")
    expect(report.first_more_seasonal == (s1 > s2)
           and report.second_more_random == (r2 > r1), "compare: verdicts inconsistent")
    return repr((s1, s2, r1, r2)).encode()


# ---------------------------------------------------------------- arima_protocol

def _arima_plan(rng, root, traced) -> Iterator[list[Call]]:
    """Units of one call: a series' protocol (13 origins) outlasts a run."""
    fixtures = [indexcast.read_values_file(root / "data" / f, FIXTURE_START)
                for f in FIXTURES]

    def synthetic():
        return indexcast.make_series(FIXTURE_START, inputs.monthly_values(rng, 72))

    if traced:
        # IV on both fixtures and a seeded series, and the first V call on
        # one fixture, whose first window is IV's, as in the paper
        calls = (_arima_calls(fixtures[0])[:2] + _arima_calls(fixtures[1])[:1]
                 + _arima_calls(synthetic())[:1])
    else:
        first = fixtures + [synthetic() for _ in range(4)]
        rng.shuffle(first)
        series = itertools.chain(first, iter(synthetic, None))
        calls = itertools.chain.from_iterable(map(_arima_calls, series))
    return ([call] for call in calls)


def _arima_calls(series) -> list[Call]:
    """Method IV at T, then method V over T+1..T+12."""
    months = [ORIGIN.offset(h) for h in range(1, 13)]
    return [Call("IV", 1,
                 lambda: evaluate.run_fixed_origin(series, "arima", ORIGIN, 12),
                 lambda rep: _check_report(rep, "IV", months, series))
            ] + _rolling_calls(series, "arima", "V", months)


def _rolling_calls(series, engine, method_id, months) -> list[Call]:
    """A rolling method over `months` as ``run_rolling`` calls of 2 months.

    ``run_rolling`` refits every month independently, so these calls
    forecast exactly what one call over all the months would; the split
    keeps a call short enough to fit many in a run.
    """
    calls = []
    for k in range(0, len(months), ROLLING_CALL_MONTHS):
        window = months[k:k + ROLLING_CALL_MONTHS]
        calls.append(Call(
            method_id, len(window),
            lambda w=window: evaluate.run_rolling(series, engine, w[0], w[-1], workers=1),
            lambda rep, w=window: _check_report(rep, method_id, w, series)))
    return calls


# ---------------------------------------------------------------- hw_protocol

def _hw_plan(rng, traced) -> Iterator[list[Call]]:
    """Units of one series; the ladder alternates short and long series."""
    for n in (HW_LADDER[:2] if traced else itertools.cycle(HW_LADDER)):
        series = indexcast.make_series(HW_START, inputs.monthly_values(rng, n))
        sibling = indexcast.make_series(HW_START, inputs.monthly_values(rng, n))
        yield _hw_calls(series, sibling)


def _hw_calls(series, sibling) -> list[Call]:
    """Methods I, II (12 months in 2-month calls), III, VI and compare."""
    start, end = series.start, series.end
    train_end = end.offset(-12)
    last_year = [train_end.offset(h) for h in range(1, 13)]
    windows = ((start, end.offset(-12)), (start.offset(12), end))
    calls = [Call("I", 1,
                  lambda: evaluate.run_fixed_origin(series, "holt_winters", train_end, 12),
                  lambda rep: _check_report(rep, "I", last_year, series))]
    calls += _rolling_calls(series, "holt_winters", "II", last_year)
    calls += [
        Call("III", 1,
             lambda: evaluate.run_trend_seasonal(series, train_end),
             lambda rep: _check_report(
                 rep, "III", [train_end.offset(h) for h in range(-5, 7)])),
        Call("VI", 1,
             lambda: evaluate.structural_stability(series, *windows),
             lambda rows: _check_stability(rows, start.offset(18), len(series) - 36)),
        Call("compare", 1,
             lambda: evaluate.compare_hypotheses(series, sibling),
             _check_hypotheses),
    ]
    return calls


# ---------------------------------------------------------------- cli_io

def _cli_plan(rng, workdir, traced) -> Iterator[list[Call]]:
    # one date range for every file, like the paper's two sectors; compare
    # --plot labels both series with the first one's months
    first_day = inputs.first_quote_day(rng)
    sources = []
    for k in range(CSV_FILES):
        quotes = inputs.daily_quotes(rng, first_day, CSV_ROWS)
        path = workdir / f"quotes-{k}.csv"
        inputs.write_daily_csv(path, quotes)
        (year, month), means = inputs.monthly_means(quotes)
        sources.append((path, indexcast.MonthStamp(year, month), means))

    combos = list(itertools.product(PRECISIONS, FORMATS))

    def unit(u):
        """Every format and precision once, rotating through the files."""
        calls = []
        for j, (precision, fmt) in enumerate(combos):
            i = u * len(combos) + j
            calls += _cli_calls(workdir, sources[i % CSV_FILES],
                                sources[(i + 1) % CSV_FILES], fmt, precision)
        return calls

    return map(unit, range(10) if traced else itertools.count())


def _run_cli(argv):
    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main([str(a) for a in argv])
    return run


def _cli_calls(workdir, source, other, fmt, precision) -> Iterator[Call]:
    path, start, means = source
    values_file = workdir / f"{path.stem}.values"
    common = ["--precision", precision]
    full = precision == "full"

    def check_ingest(code):
        expect(code == 0, f"ingest exited {code}")
        lines = values_file.read_text(encoding="utf-8").splitlines()
        expect(lines[0] == f"# start {start}", f"ingest header {lines[0]!r}")
        got = [float(v) for v in lines[1:]]
        expect(len(got) == len(means), "ingest: wrong number of months")
        tol = 0.0 if full else 0.0051
        expect(all(abs(g - m) <= tol for g, m in zip(got, means)),
               "ingest output does not read back to the monthly means")
        return values_file.read_bytes()

    yield Call("ingest", 1,
               _run_cli(["ingest", "--input", path, "--format", "daily_csv",
                         "--out", values_file] + common), check_ingest)

    table, svg = workdir / "decompose.out", workdir / "decompose.svg"

    def check_decompose(code):
        expect(code == 0, f"decompose exited {code}")
        rows = _parse_table(table.read_text(encoding="utf-8"), fmt)
        expect(len(rows) == len(means), "decompose: wrong number of rows")
        level = 0.0 if full else 0.5
        for row, mean in zip(rows, means):
            aggregate, trend, seasonal, random_part = row[2:6]
            expect(abs(aggregate - mean) <= level + (0.0 if full else 0.0051),
                   "decompose: aggregate is not the ingested value")
            if trend is not None:
                expect(abs(trend + seasonal + random_part - aggregate)
                       <= (1e-9 * abs(aggregate) if full else 4 * level),
                       "decompose: trend + seasonal + random != series")
        index_sum = sum(row[4] for row in rows[:12])
        expect(abs(index_sum) <= (1e-9 * max(means) if full else 12 * level),
               f"decompose: seasonal indices sum to {index_sum}")
        return table.read_bytes() + _check_svg(svg, 4)

    yield Call("decompose", 1,
               _run_cli(["decompose", "--input", values_file, "--start", start,
                         "--output-format", fmt, "--out", table, "--plot", svg]
                        + common), check_decompose)

    stability = workdir / "stability.out"

    def check_stability(code):
        expect(code == 0, f"stability exited {code}")
        rows = _parse_table(stability.read_text(encoding="utf-8"), fmt)
        expect(len(rows) == len(means) - 36, "stability: wrong number of rows")
        for row in rows:
            t1, s1, sum1, t2, s2, sum2, variation = row[2:9]
            tol = 1e-9 * abs(sum1) if full else 1.5
            expect(abs(t1 + s1 - sum1) <= tol and abs(t2 + s2 - sum2) <= tol,
                   "stability: sum is not trend + seasonal")
            if full:
                expect(math.isclose(variation, (sum2 - sum1) / sum1 * 100.0,
                                    rel_tol=1e-9, abs_tol=1e-9),
                       "stability: variation does not recompute")
            else:
                # levels show as integers (+-0.5) and percentages to 2
                # decimals (+-0.005): the true sums lie within 0.5 of the
                # shown ones, so the variation lies between the extremes
                corners = [(b - a) / a * 100.0 for a in (sum1 - 0.5, sum1 + 0.5)
                           for b in (sum2 - 0.5, sum2 + 0.5)]
                expect(min(corners) - 0.0051 <= variation <= max(corners) + 0.0051,
                       "stability: variation does not recompute")
        return stability.read_bytes()

    yield Call("stability", 1,
               _run_cli(["stability", "--input", path, "--format", "daily_csv",
                         "--output-format", fmt, "--out", stability] + common),
               check_stability)

    verdicts, overlay = workdir / "compare.out", workdir / "compare.svg"

    def check_compare(code):
        expect(code == 0, f"compare exited {code}")
        text = verdicts.read_text(encoding="utf-8")
        s1, s2, r1, r2 = (float(v) for v in re.findall(r"series[12]=([-0-9.e+]+)%", text))
        flags = re.findall(r":\s+(True|False)$", text, re.MULTILINE)
        expect(min(s1, s2, r1, r2) > 0.0 and len(flags) == 2,
               "compare: malformed amplitudes or verdicts")
        resolution = 0.0 if full else 0.01
        expect((abs(s1 - s2) <= resolution or (flags[0] == "True") == (s1 > s2))
               and (abs(r1 - r2) <= resolution or (flags[1] == "True") == (r2 > r1)),
               "compare: verdicts inconsistent with amplitudes")
        return text.encode() + _check_svg(overlay, 4)

    yield Call("compare", 1,
               _run_cli(["compare", "--input", path, "--format", "daily_csv",
                         "--input2", other[0], "--out", verdicts, "--plot", overlay]
                        + common), check_compare)


def _check_svg(path: Path, min_lines: int) -> bytes:
    data = path.read_bytes()
    try:
        root = ElementTree.fromstring(data)
    except ElementTree.ParseError as exc:
        raise CheckError(f"{path.name} does not parse: {exc}") from None
    expect(root.tag == "{http://www.w3.org/2000/svg}svg", f"{path.name}: not an SVG")
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    expect(len(lines) >= min_lines, f"{path.name}: {len(lines)} polylines")
    return hashlib.sha256(data).digest()


def _parse_table(text: str, fmt: str) -> list[list]:
    """Rows of a rendered table; numeric cells as floats, blanks as None."""
    lines = text.splitlines()
    if fmt == "csv":
        cells = [line.split(",") for line in lines[1:]]
    elif fmt == "markdown":
        cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines[2:]]
    else:  # text: right-aligned columns; a column ends where its header ends
        ends = [m.end() for m in re.finditer(r"\S+", lines[0])]
        starts = [0] + [e + 2 for e in ends[:-1]]
        cells = [[line[a:b].strip() for a, b in zip(starts, ends)] for line in lines[1:]]

    def number(cell):
        if not cell:
            return None
        try:
            return float(cell)
        except ValueError:
            return cell  # month abbreviation
    return [[number(c) for c in row] for row in cells]
