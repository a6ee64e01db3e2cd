"""indexcast: decomposition and forecasting of monthly financial index series.

Provides calendar-anchored monthly series, classical additive
decomposition, additive Holt-Winters and ARIMA forecasting, the
fixed-origin / rolling-origin / trend+seasonal / structural-stability
evaluation protocols, and deterministic table/SVG rendering.
"""

from types import ModuleType as _ModuleType

from .arima import (ArimaModel, ArimaOrder, choose_difference_order,
                    fit_arima, forecast_arima, integrate, select_order)
from .decompose import (DecompositionResult, component_percentage,
                        decompose_additive)
from .errors import (ComputationError, DataError, EmptyInputError,
                     GapInSeriesError, IndexcastError, InsufficientDataError,
                     MissingStartError, NoOverlapError, OutOfRangeError,
                     ParseError, SelectionFailedError, SeriesTooShortError)
from .evaluate import (ErrorSummary, ForecastRow, HypothesisReport,
                       MethodReport, StabilityRow, absolute_percentage_error,
                       compare_hypotheses, run_fixed_origin, run_method,
                       run_rolling, run_trend_seasonal, structural_stability,
                       summarize_errors)
from .fileio import read_daily_csv, read_values_file, write_values_file
from .holtwinters import (HoltWintersModel, HoltWintersParams,
                          fit_holt_winters, forecast_hw, one_step_sse)
from .series import (MONTH_ABBR, MonthStamp, MonthlyTimeSeries,
                     aggregate_daily_to_monthly, make_series, slice_window)

__version__ = "0.1.0"

# every public name bound above except the submodules themselves
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
