import dataclasses
import inspect
import sys

import pytest

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


def test_package_surface():
    namespace = {}
    exec("from indexcast import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(indexcast))
    for name in PUBLIC_NAMES:
        value = getattr(indexcast, name)
        # MONTH_ABBR, a tuple, names no module
        home = sys.modules[getattr(value, "__module__", "indexcast.series")]
        assert getattr(home, name) is value
    # read through to the home module every time, never stored in the
    # package, so a function replaced there is replaced here too
    assert not set(PUBLIC_NAMES) & set(vars(indexcast))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        indexcast.no_such_name

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
