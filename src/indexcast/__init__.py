"""indexcast: decomposition and forecasting of monthly financial index series.

Provides calendar-anchored monthly series, classical additive
decomposition, additive Holt-Winters and ARIMA forecasting, the
fixed-origin / rolling-origin / trend+seasonal / structural-stability
evaluation protocols, and deterministic table/SVG rendering.

The public names load their submodule on first use (PEP 562), so
``import indexcast`` loads no numpy; ``indexcast.fit_arima`` loads it.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_NAMES = {
    "arima": ("ArimaModel", "ArimaOrder", "choose_difference_order", "fit_arima",
              "forecast_arima", "integrate", "select_order"),
    "decompose": ("DecompositionResult", "component_percentage",
                  "decompose_additive"),
    "errors": ("ComputationError", "DataError", "EmptyInputError",
               "GapInSeriesError", "IndexcastError", "InsufficientDataError",
               "MissingStartError", "NoOverlapError", "OutOfRangeError",
               "ParseError", "SelectionFailedError", "SeriesTooShortError"),
    "evaluate": ("ErrorSummary", "ForecastRow", "HypothesisReport",
                 "MethodReport", "StabilityRow", "absolute_percentage_error",
                 "compare_hypotheses", "run_fixed_origin", "run_method",
                 "run_rolling", "run_trend_seasonal", "structural_stability",
                 "summarize_errors"),
    "fileio": ("read_daily_csv", "read_values_file", "write_values_file"),
    "holtwinters": ("HoltWintersModel", "HoltWintersParams", "fit_holt_winters",
                    "forecast_hw", "one_step_sse"),
    "series": ("MONTH_ABBR", "MonthStamp", "MonthlyTimeSeries",
               "aggregate_daily_to_monthly", "make_series", "slice_window"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    # read from the home module on every access and never stored here, so
    # a function replaced there (a test's monkeypatch, the benchmark's
    # tracer) is what every caller sees, and its restore is too
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
