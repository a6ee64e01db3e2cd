"""Command-line front end.

Subcommands: ``ingest`` (daily CSV or values file to a monthly values
file), ``decompose``, ``forecast`` (methods I-V), ``stability`` (two-window
comparison), and ``compare`` (two-series hypothesis check).  Each command
loads its input, computes, and writes its text to stdout, or to ``--out``
when given; it returns nothing.  One writer, ``_write``, writes that text
and the ``--plot`` SVG of ``decompose`` and ``compare``: as UTF-8 to the
named file, or to stdout when no file is named.  The SVG is written
first, so a chart that cannot be written leaves no report behind.
``main`` alone sets the exit code: 0 when the command returns, 2 usage
error (from argparse), 3 data error, 4 computation error (also when a
command that computes runs without numpy, or an ARIMA method without
scipy: one ``computation error: ...`` line on stderr).

Each command that computes imports its models when it runs, so
``ingest``, ``--help`` and a usage error load no numpy.  The parser is
built once per process, at the first ``main`` call rather than at import,
and every later call reuses it.

A ``--start`` (or ``--start2``) given with a daily CSV must name the file's
first month, as a values file's ``# start`` line must; another month is a
data error.  ``compare`` takes ``--start`` as the second input's month only
when that input is a values file.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ComputationError, DataError, MissingStartError
from .fileio import read_daily_csv, read_values_file, values_text
from .render import (render_decomposition, render_hypotheses,
                     render_method_report, render_stability)
from .series import METHODS, MonthStamp, MonthlyTimeSeries
from .svgchart import Line, Panel, render_chart


def _month(text) -> MonthStamp:
    """argparse ``type=`` for a YYYY-MM flag."""
    try:
        return MonthStamp.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _window(text) -> tuple[MonthStamp, MonthStamp]:
    """argparse ``type=`` for a YYYY-MM:YYYY-MM flag."""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected YYYY-MM:YYYY-MM, got {text!r}")
    return _month(parts[0]), _month(parts[1])


def _load_series(parser, path, fmt, start: MonthStamp | None,
                 flag="--start") -> MonthlyTimeSeries:
    if fmt == "daily_csv":
        series = read_daily_csv(path)
        if start not in (None, series.start):
            raise DataError(f"{path}: first month {series.start} conflicts "
                            f"with start month {start}")
        return series
    try:
        return read_values_file(path, start)
    except MissingStartError as exc:
        parser.error(f"{exc}; give {flag} YYYY-MM or a '# start YYYY-MM' line")


def _write(path, text):
    """Write `text` as UTF-8 to `path`, or to stdout when no path is given.

    An empty name is a path too, so it fails as an ``OSError`` (exit 3)."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_ingest(args):
    series = _load_series(args.parser, args.input, args.format, args.start)
    _write(args.out, values_text(series, args.precision == "full"))
    sys.stderr.write(f"ingested {len(series)} months "
                     f"{series.start}..{series.end}\n")


def cmd_decompose(args):
    from .decompose import decompose_additive
    series = _load_series(args.parser, args.input, args.format, args.start)
    result = decompose_additive(series)
    if args.plot is not None:
        panels = [Panel(name, (Line(name, values),)) for name, values in (
            ("aggregate", series.values), ("trend", result.trend),
            ("seasonal", result.seasonal), ("random", result.random))]
        _write(args.plot, render_chart(panels, series.months(),
                                       title="additive decomposition"))
    _write(args.out, render_decomposition(result, args.output_format,
                                          args.precision))


def cmd_forecast(args):
    if args.horizon < 2 or (args.method == "III" and args.horizon != 12):
        args.parser.error(f"--horizon must be at least 2 (the error summary needs "
                          f"two months) and 12 for method III, got {args.horizon}")
    from .evaluate import run_method
    series = _load_series(args.parser, args.input, args.format, args.start)
    report = run_method(series, args.method, args.train_end, args.horizon)
    _write(args.out, render_method_report(report, args.output_format,
                                          args.precision))


def cmd_stability(args):
    from .evaluate import structural_stability
    series = _load_series(args.parser, args.input, args.format, args.start)
    rows = structural_stability(series, args.window_a, args.window_b)
    _write(args.out, render_stability(rows, args.output_format, args.precision))


def cmd_compare(args):
    from .evaluate import compare_hypotheses
    series_1 = _load_series(args.parser, args.input, args.format, args.start)
    # --start is the default month of a second values file; a daily CSV
    # names its own, which only --start2 is checked against
    format2 = args.format2 or args.format
    start2 = args.start2 or (args.start if format2 == "values" else None)
    series_2 = _load_series(args.parser, args.input2, format2, start2, "--start2")
    if args.plot is not None and (series_1.start, len(series_1)) != (series_2.start, len(series_2)):
        raise DataError("--plot needs both inputs over the same months")
    report = compare_hypotheses(series_1, series_2)
    if args.plot is not None:
        panels = [Panel(f"{name} component, % of series",
                        (Line("series 1", pct_1), Line("series 2", pct_2)))
                  for name, pct_1, pct_2 in (
                      ("seasonal", report.seasonal_pct_1, report.seasonal_pct_2),
                      ("random", report.random_pct_1, report.random_pct_2))]
        _write(args.plot, render_chart(panels, series_1.months(),
                                       title="component comparison"))
    _write(args.out, render_hypotheses(report, args.precision))


def _add_command(subs, name, func, summary, table=False):
    """A subparser with the common flags that runs ``func(args)``.

    The subparser is ``args.parser``, so a usage error names its subcommand.
    """
    sub = subs.add_parser(name, help=summary)
    sub.add_argument("--input", required=True, help="input data file")
    sub.add_argument("--format", choices=["values", "daily_csv"],
                     default="values", help="input format (default: values)")
    sub.add_argument("--start", type=_month, help="start month YYYY-MM (default: a values "
                     "file's '# start' line); a daily CSV's must be its first month")
    sub.add_argument("--out", help="write output here instead of stdout")
    if table:  # only subcommands that render a table take a table format
        sub.add_argument("--output-format", choices=["text", "csv", "markdown"],
                         default="text")
    sub.add_argument("--precision", choices=["display", "full"],
                     default="display")
    sub.set_defaults(func=func, parser=sub)
    return sub


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``indexcast`` parser, built at the first call and then reused:
    parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="indexcast",
        description="Decompose and forecast monthly financial index series.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_command(subs, "ingest", cmd_ingest, "aggregate input into a monthly values file")

    p = _add_command(subs, "decompose", cmd_decompose,
                     "trend/seasonal/random decomposition", table=True)
    p.add_argument("--plot", help="write a four-panel SVG here")

    p = _add_command(subs, "forecast", cmd_forecast,
                     "run one of the evaluation methods I..V", table=True)
    p.add_argument("--method", choices=list(METHODS), required=True)
    p.add_argument("--train-end", type=_month, help="last training month "
                   "YYYY-MM (default: horizon months before the end)")
    p.add_argument("--horizon", type=int, default=12,
                   help="months to evaluate, at least 2 (default 12); "
                        "method III always covers 12")

    p = _add_command(subs, "stability", cmd_stability,
                     "two-window trend+seasonal comparison", table=True)
    p.add_argument("--window-a", type=_window,
                   help="YYYY-MM:YYYY-MM (default: all but last year)")
    p.add_argument("--window-b", type=_window,
                   help="YYYY-MM:YYYY-MM (default: all but first year)")

    p = _add_command(subs, "compare", cmd_compare,
                     "seasonal/random hypothesis check on two series")
    p.add_argument("--input2", required=True, help="second input file")
    p.add_argument("--format2", choices=["values", "daily_csv"],
                   help="second input format (default: --format)")
    p.add_argument("--start2", type=_month, help="the same for --input2 (default: "
                   "--start, when --input2 is a values file)")
    p.add_argument("--plot", help="write seasonal/random overlay SVG here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except DataError as exc:
        sys.stderr.write(f"data error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return 3
    # an ImportError comes from a command loading its models (numpy) or
    # from an ARIMA fit loading scipy's filter
    except (ComputationError, ZeroDivisionError, ValueError,
            ImportError) as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 4
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
