"""Command-line front end.

Subcommands: ``ingest`` (daily CSV or values file to a monthly values
file), ``decompose``, ``forecast`` (methods I-V), ``stability`` (two-window
comparison), and ``compare`` (two-series hypothesis check).  Exit codes:
0 success, 2 usage error, 3 data error, 4 computation error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .decompose import decompose_additive
from .errors import ComputationError, DataError, SeriesTooShortError
from .evaluate import (METHODS, compare_hypotheses, run_method,
                       structural_stability)
from .fileio import read_daily_csv, read_values_file, values_text, write_values_file
from .render import (render_decomposition, render_hypotheses,
                     render_method_report, render_stability)
from .series import MonthStamp, MonthlyTimeSeries
from .svgchart import Line, Panel, render_chart


def _month(parser, text, flag):
    try:
        return MonthStamp.parse(text)
    except ValueError as exc:
        parser.error(f"{flag}: {exc}")


def _window(parser, text, flag):
    parts = text.split(":")
    if len(parts) != 2:
        parser.error(f"{flag}: expected YYYY-MM:YYYY-MM, got {text!r}")
    return (_month(parser, parts[0], flag), _month(parser, parts[1], flag))


def _load_series(parser, path, fmt, start_text, flag="--input") -> MonthlyTimeSeries:
    if fmt == "values":
        if not start_text:
            parser.error(f"{flag}: values format requires --start YYYY-MM")
        return read_values_file(path, _month(parser, start_text, "--start"))
    return read_daily_csv(path)


def _write_output(args, text):
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_ingest(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    full_precision = args.precision == "full"
    if args.out:
        write_values_file(args.out, series, full_precision)
    else:
        sys.stdout.write(values_text(series, full_precision))
    sys.stderr.write(f"ingested {len(series)} months "
                     f"{series.start}..{series.end}\n")
    return 0


def cmd_decompose(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    result = decompose_additive(series)
    _write_output(args, render_decomposition(result, args.output_format,
                                             args.precision))
    if args.plot:
        panels = [Panel(name, (Line(name, values),)) for name, values in (
            ("aggregate", series.values), ("trend", result.trend),
            ("seasonal", result.seasonal), ("random", result.random))]
        labels = [str(m) for m in series.months()]
        Path(args.plot).write_text(
            render_chart(panels, labels, title="additive decomposition"),
            encoding="utf-8")
    return 0


def cmd_forecast(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    if args.horizon < 2 or (args.method == "III" and args.horizon != 12):
        parser.error(f"--horizon must be at least 2 (the error summary needs two "
                     f"months) and 12 for method III, got {args.horizon}")
    if args.train_end:
        train_end = _month(parser, args.train_end, "--train-end")
    else:
        train_end = series.end.offset(-args.horizon)
    report = run_method(series, args.method, train_end, args.horizon)
    _write_output(args, render_method_report(report, args.output_format,
                                             args.precision))
    return 0


def cmd_stability(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    # each default window's 2x12 trend leaves out 6 months at either end,
    # so the two overlap only from 37 months on
    if not (args.window_a or args.window_b) and len(series) < 37:
        raise SeriesTooShortError("the default windows need at least 37 "
                                  f"months, got {len(series)}")
    if args.window_a:
        window_a = _window(parser, args.window_a, "--window-a")
    else:
        window_a = (series.start, series.end.offset(-12))
    if args.window_b:
        window_b = _window(parser, args.window_b, "--window-b")
    else:
        window_b = (series.start.offset(12), series.end)
    rows = structural_stability(series, window_a, window_b)
    _write_output(args, render_stability(rows, args.output_format, args.precision))
    return 0


def cmd_compare(args, parser):
    series_1 = _load_series(parser, args.input, args.format, args.start)
    series_2 = _load_series(parser, args.input2, args.format2 or args.format,
                            args.start2 or args.start, flag="--input2")
    if args.plot and series_1.months() != series_2.months():
        raise DataError("--plot needs both inputs over the same months")
    report = compare_hypotheses(series_1, series_2)
    _write_output(args, render_hypotheses(report, args.precision))
    if args.plot:
        panels = [
            Panel("seasonal component, % of series", (
                Line("series 1", report.seasonal_pct_1),
                Line("series 2", report.seasonal_pct_2))),
            Panel("random component, % of series", (
                Line("series 1", report.random_pct_1),
                Line("series 2", report.random_pct_2))),
        ]
        labels = [str(m) for m in series_1.months()]
        Path(args.plot).write_text(
            render_chart(panels, labels, title="component comparison"),
            encoding="utf-8")
    return 0


def _add_common(sub, table=False):
    sub.add_argument("--input", required=True, help="input data file")
    sub.add_argument("--format", choices=["values", "daily_csv"],
                     default="values", help="input format (default: values)")
    sub.add_argument("--start", help="start month YYYY-MM (values format)")
    sub.add_argument("--out", help="write output here instead of stdout")
    if table:  # only subcommands that render a table take a table format
        sub.add_argument("--output-format", choices=["text", "csv", "markdown"],
                         default="text")
    sub.add_argument("--precision", choices=["display", "full"],
                     default="display")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indexcast",
        description="Decompose and forecast monthly financial index series.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("ingest", help="aggregate input into a monthly values file")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("decompose", help="trend/seasonal/random decomposition")
    _add_common(p, table=True)
    p.add_argument("--plot", help="write a four-panel SVG here")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("forecast", help="run one of the evaluation methods I..V")
    _add_common(p, table=True)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--train-end", help="last training month YYYY-MM "
                                       "(default: horizon months before the end)")
    p.add_argument("--horizon", type=int, default=12,
                   help="months to evaluate, at least 2 (default 12); "
                        "method III always covers 12")
    p.set_defaults(func=cmd_forecast)

    p = subs.add_parser("stability", help="two-window trend+seasonal comparison")
    _add_common(p, table=True)
    p.add_argument("--window-a", help="YYYY-MM:YYYY-MM (default: all but last year)")
    p.add_argument("--window-b", help="YYYY-MM:YYYY-MM (default: all but first year)")
    p.set_defaults(func=cmd_stability)

    p = subs.add_parser("compare", help="seasonal/random hypothesis check on two series")
    _add_common(p)
    p.add_argument("--input2", required=True, help="second input file")
    p.add_argument("--format2", choices=["values", "daily_csv"],
                   help="second input format (default: --format)")
    p.add_argument("--start2", help="second start month (default: --start)")
    p.add_argument("--plot", help="write seasonal/random overlay SVG here")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3
    except (ComputationError, ZeroDivisionError, ValueError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
