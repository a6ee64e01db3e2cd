import dataclasses
import inspect

import indexcast

# the 49 public names; a change to the public API shows here, in review
PUBLIC_NAMES = [
    "ArimaModel", "ArimaOrder", "ComputationError", "DataError",
    "DecompositionResult", "EmptyInputError", "ErrorSummary", "ForecastRow",
    "GapInSeriesError", "HoltWintersModel", "HoltWintersParams",
    "HypothesisReport", "IndexcastError", "InsufficientDataError",
    "MONTH_ABBR", "MethodReport", "MissingStartError", "MonthStamp",
    "MonthlyTimeSeries", "NoOverlapError", "OutOfRangeError", "ParseError",
    "SelectionFailedError", "SeriesTooShortError", "StabilityRow",
    "absolute_percentage_error", "aggregate_daily_to_monthly",
    "choose_difference_order", "compare_hypotheses", "component_percentage",
    "decompose_additive", "fit_arima", "fit_holt_winters", "forecast_arima",
    "forecast_hw", "integrate", "make_series", "one_step_sse",
    "read_daily_csv", "read_values_file", "run_fixed_origin", "run_method",
    "run_rolling", "run_trend_seasonal", "select_order", "slice_window",
    "structural_stability", "summarize_errors", "write_values_file",
]


def test_public_names():
    assert sorted(indexcast.__all__) == PUBLIC_NAMES

# the public methods and properties of each exported class, dataclass fields
# aside; every class not listed here has none
PUBLIC_MEMBERS = {
    "DecompositionResult": ["seasonal_index_for", "trend_series"],
    "MonthStamp": ["month_index", "months_until", "offset", "parse"],
    "MonthlyTimeSeries": ["end", "index_of", "month_indices", "months"],
}


def test_public_members():
    members = {}
    for name in indexcast.__all__:
        cls = getattr(indexcast, name)
        if not inspect.isclass(cls):
            continue
        fields = ({f.name for f in dataclasses.fields(cls)}
                  if dataclasses.is_dataclass(cls) else set())
        own = sorted(k for k in vars(cls)
                     if not k.startswith("_") and k not in fields)
        if own:
            members[name] = own
    assert members == PUBLIC_MEMBERS
