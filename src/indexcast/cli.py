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

from .decompose import component_percentage, decompose_additive
from .errors import ComputationError, DataError
from .evaluate import (METHODS, run_fixed_origin, run_rolling,
                       run_trend_seasonal, structural_stability,
                       compare_hypotheses)
from .fileio import read_daily_csv, read_values_file, write_values_file
from .render import (render_decomposition, render_hypotheses,
                     render_method_report, render_stability)
from .series import MonthStamp, MonthlyTimeSeries, aggregate_daily_to_monthly
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
    return aggregate_daily_to_monthly(read_daily_csv(path))


def _write_output(args, text):
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _decomposition_panels(result):
    n = len(result.source)
    return [
        Panel("aggregate", (Line("aggregate", result.source.values),)),
        Panel("trend", (Line("trend", result.trend),)),
        Panel("seasonal", (Line("seasonal", result.seasonal),)),
        Panel("random", (Line("random", result.random),)),
    ], [str(m) for m in result.source.months()]


def cmd_ingest(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    if args.out:
        write_values_file(args.out, series, full_precision=args.precision == "full")
    else:
        fmt = repr if args.precision == "full" else "{:.2f}".format
        sys.stdout.write(f"# start {series.start}\n")
        for v in series.values:
            sys.stdout.write(f"{fmt(v)}\n")
    sys.stderr.write(f"ingested {len(series)} months "
                     f"{series.start}..{series.end}\n")
    return 0


def cmd_decompose(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    result = decompose_additive(series)
    _write_output(args, render_decomposition(result, args.output_format,
                                             args.precision))
    if args.plot:
        panels, labels = _decomposition_panels(result)
        Path(args.plot).write_text(
            render_chart(panels, labels, title="additive decomposition"),
            encoding="utf-8")
    return 0


def cmd_forecast(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
    if args.horizon < 1:
        parser.error(f"--horizon must be >= 1, got {args.horizon}")
    if args.train_end:
        train_end = _month(parser, args.train_end, "--train-end")
    else:
        train_end = series.end.offset(-args.horizon)
    engine, protocol = METHODS.get(args.method, (None, None))
    if protocol == "fixed":
        report = run_fixed_origin(series, engine, train_end, args.horizon)
    elif protocol == "rolling":
        report = run_rolling(series, engine, train_end.offset(1),
                             train_end.offset(args.horizon))
    else:
        report = run_trend_seasonal(series, train_end)
    _write_output(args, render_method_report(report, args.output_format,
                                             args.precision))
    return 0


def cmd_stability(args, parser):
    series = _load_series(parser, args.input, args.format, args.start)
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
        dec_1 = decompose_additive(series_1)
        dec_2 = decompose_additive(series_2)
        panels = [
            Panel("seasonal component, % of series", (
                Line("series 1", component_percentage(series_1, dec_1.seasonal)),
                Line("series 2", component_percentage(series_2, dec_2.seasonal)))),
            Panel("random component, % of series", (
                Line("series 1", component_percentage(series_1, dec_1.random)),
                Line("series 2", component_percentage(series_2, dec_2.random)))),
        ]
        labels = [str(m) for m in series_1.months()]
        Path(args.plot).write_text(
            render_chart(panels, labels, title="component comparison"),
            encoding="utf-8")
    return 0


def _add_common(sub):
    sub.add_argument("--input", required=True, help="input data file")
    sub.add_argument("--format", choices=["values", "daily_csv"],
                     default="values", help="input format (default: values)")
    sub.add_argument("--start", help="start month YYYY-MM (values format)")
    sub.add_argument("--out", help="write output here instead of stdout")
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
    _add_common(p)
    p.add_argument("--plot", help="write a four-panel SVG here")
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("forecast", help="run one of the evaluation methods I..V")
    _add_common(p)
    p.add_argument("--method", choices=["I", "II", "III", "IV", "V"], required=True)
    p.add_argument("--train-end", help="last training month YYYY-MM "
                                       "(default: horizon months before the end)")
    p.add_argument("--horizon", type=int, default=12,
                   help="months to evaluate (default 12)")
    p.set_defaults(func=cmd_forecast)

    p = subs.add_parser("stability", help="two-window trend+seasonal comparison")
    _add_common(p)
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
