"""Forecast-evaluation protocols and accuracy metrics.

Six protocols are provided: fixed-origin 12-month forecasts (methods I and
IV, Holt-Winters and ARIMA), rolling one-month-ahead forecasts with a
refit before every month (II and V), a trend-plus-seasonal aggregate
forecast built on the decomposed trend (III), and a two-window structural
stability comparison (VI).  Errors are absolute percentage errors; summary
standard deviations use the n-1 denominator.  ``run_method`` runs any of
the methods I-V by its id in ``METHODS``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Literal

from .arima import forecast_arima, select_order
from .decompose import component_percentage, decompose_additive
from .errors import InsufficientDataError, NoOverlapError, OutOfRangeError
from .holtwinters import fit_holt_winters, forecast_hw
from .series import MonthlyTimeSeries, MonthStamp, slice_window

Engine = Literal["holt_winters", "arima"]

# the paper's method ids with the engine and protocol each one runs
METHODS = {"I": ("holt_winters", "fixed"), "II": ("holt_winters", "rolling"),
           "III": ("holt_winters", "trend_seasonal"),
           "IV": ("arima", "fixed"), "V": ("arima", "rolling")}
_METHOD_ID = {pair: method_id for method_id, pair in METHODS.items()}


@dataclass(frozen=True)
class ForecastRow:
    month: MonthStamp
    actual: float
    forecast: float
    ape: float


@dataclass(frozen=True)
class ErrorSummary:
    min: float
    max: float
    mean: float
    sd: float


@dataclass(frozen=True)
class MethodReport:
    """One evaluation table: per-month rows plus the error summary."""

    method_id: str
    rows: tuple[ForecastRow, ...]
    summary: ErrorSummary


@dataclass(frozen=True)
class StabilityRow:
    """Trend+seasonal sums from two shifted windows and their variation."""

    month: MonthStamp
    trend_a: float
    seasonal_a: float
    sum_a: float
    trend_b: float
    seasonal_b: float
    sum_b: float
    variation_pct: float


@dataclass(frozen=True)
class HypothesisReport:
    """Mean absolute component percentages for two series and verdicts.

    ``first_more_seasonal`` is True when series 1 has the larger seasonal
    amplitude; ``second_more_random`` when series 2 has the larger random
    amplitude.  Ties yield False.  The ``*_pct_*`` fields hold the per-month
    percentages each amplitude averages, None where undefined.
    """

    seasonal_amplitude_1: float
    seasonal_amplitude_2: float
    random_amplitude_1: float
    random_amplitude_2: float
    first_more_seasonal: bool
    second_more_random: bool
    seasonal_pct_1: tuple[float | None, ...]
    seasonal_pct_2: tuple[float | None, ...]
    random_pct_1: tuple[float | None, ...]
    random_pct_2: tuple[float | None, ...]


def absolute_percentage_error(actual: float, forecast: float) -> float:
    """|forecast - actual| / |actual| * 100."""
    if actual == 0:
        raise ZeroDivisionError("actual value is zero")
    return abs(forecast - actual) / abs(actual) * 100.0


def _require_two_errors(count: int) -> None:
    if count < 2:
        raise InsufficientDataError(
            f"need at least 2 errors to summarize, got {count}")


def summarize_errors(apes) -> ErrorSummary:
    """Min, max, mean, and sample (n-1) standard deviation."""
    values = [float(v) for v in apes]
    _require_two_errors(len(values))
    return ErrorSummary(min=min(values), max=max(values),
                        mean=statistics.fmean(values),
                        sd=statistics.stdev(values))


def _report(method_id, months, actuals, forecasts) -> MethodReport:
    rows = tuple(
        ForecastRow(m, a, f, absolute_percentage_error(a, f))
        for m, a, f in zip(months, actuals, forecasts))
    return MethodReport(method_id, rows, summarize_errors(r.ape for r in rows))


def _fit_forecast(train: MonthlyTimeSeries, engine: Engine,
                  horizon: int) -> tuple[float, ...]:
    # the fit functions are looked up at call time, so a wrapper set on this
    # module sees every call
    if engine == "holt_winters":
        return forecast_hw(fit_holt_winters(train), horizon)
    if engine == "arima":
        return forecast_arima(select_order(train), horizon)
    raise ValueError(f"unknown engine {engine!r}")


def run_fixed_origin(series: MonthlyTimeSeries, engine: Engine,
                     train_end: MonthStamp, horizon: int) -> MethodReport:
    """Fit once through train_end, forecast `horizon` months (method I/IV).

    The ARIMA engine forecasts from the model that order selection on the
    training window picked and fitted.  A horizon of 1 cannot be summarized
    and raises InsufficientDataError before the fit.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    series.index_of(train_end.offset(horizon))  # evaluation months in span
    _require_two_errors(horizon)
    train = slice_window(series, series.start, train_end)
    forecasts = _fit_forecast(train, engine, horizon)
    months = [train_end.offset(h) for h in range(1, horizon + 1)]
    actuals = [series.values[series.index_of(m)] for m in months]
    return _report(_METHOD_ID[engine, "fixed"], months, actuals, forecasts)


def run_rolling(series: MonthlyTimeSeries, engine: Engine,
                eval_start: MonthStamp, eval_end: MonthStamp,
                workers: int = 1) -> MethodReport:
    """Refit before every month and forecast one step (method II/V).

    For each month m in the window, the model trains on everything up to
    m-1; the ARIMA engine re-runs order selection every month.  The refits
    run one after another in the calling process.  `workers` is kept only
    for callers that still pass 1; any other value raises ValueError.  A
    one-month window cannot be summarized and raises InsufficientDataError
    before any fit.
    """
    if workers != 1:
        raise ValueError(f"run_rolling runs in one process; workers must be "
                         f"1, got {workers!r}")
    if eval_start > eval_end:
        raise OutOfRangeError(f"empty evaluation window {eval_start}..{eval_end}")
    series.index_of(eval_start)
    series.index_of(eval_end)
    months = [eval_start.offset(k)
              for k in range(eval_start.months_until(eval_end) + 1)]
    _require_two_errors(len(months))
    forecasts = [
        _fit_forecast(slice_window(series, series.start, month.offset(-1)),
                      engine, 1)[0]
        for month in months]
    actuals = [series.values[series.index_of(month)] for month in months]
    return _report(_METHOD_ID[engine, "rolling"], months, actuals, forecasts)


def run_trend_seasonal(series_full: MonthlyTimeSeries,
                       train_end: MonthStamp) -> MethodReport:
    """Forecast the trend+seasonal aggregate over a 12-month window (method III).

    The training window [start, train_end] is decomposed; Holt-Winters is
    fitted to its defined trend and projected over the 12 months after it,
    train_end-5 .. train_end+6.  Each projected trend value plus the
    training seasonal index forms the forecast sum.  The actual sum is the
    full series' trend plus seasonal index over the same months, so its
    trend must be defined through the last of them: the series must extend
    6 months past the window, which is checked before the fit.
    """
    train_dec = decompose_additive(slice_window(series_full, series_full.start, train_end))
    train_trend = train_dec.trend_series()
    eval_months = [train_trend.end.offset(h) for h in range(1, 13)]
    full_dec = decompose_additive(series_full)
    full_trend = full_dec.trend_series()
    if full_trend.end < eval_months[-1]:  # the actual sums need the trend there
        raise OutOfRangeError(f"the trend ends at {full_trend.end}, before {eval_months[-1]}")
    trend_fc = forecast_hw(fit_holt_winters(train_trend), 12)
    actuals = [full_trend.values[full_trend.index_of(m)]
               + full_dec.seasonal_index_for(m) for m in eval_months]
    forecasts = [f + train_dec.seasonal_index_for(m) for m, f in zip(eval_months, trend_fc)]
    return _report("III", eval_months, actuals, forecasts)


def run_method(series: MonthlyTimeSeries, method_id: str,
               train_end: MonthStamp, horizon: int = 12) -> MethodReport:
    """Run method I-V of ``METHODS`` with training data through train_end.

    I and IV fit once and forecast the `horizon` months after train_end; II
    and V refit before each of them.  III always covers 12 months.  An
    unknown id, a horizon below 1, or III with another horizon, raises
    ValueError before any fit.
    """
    if method_id not in METHODS:
        raise ValueError(f"unknown method {method_id!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    engine, protocol = METHODS[method_id]
    # looked up at call time, so a wrapper set on this module sees each call
    if protocol == "fixed":
        return run_fixed_origin(series, engine, train_end, horizon)
    if protocol == "rolling":
        return run_rolling(series, engine, train_end.offset(1),
                           train_end.offset(horizon))
    if horizon != 12:
        raise ValueError(f"method III covers 12 months, got horizon {horizon}")
    return run_trend_seasonal(series, train_end)


def structural_stability(series_full: MonthlyTimeSeries,
                         window_a: tuple[MonthStamp, MonthStamp],
                         window_b: tuple[MonthStamp, MonthStamp]) -> tuple[StabilityRow, ...]:
    """Compare trend+seasonal sums from two windows over their overlap (method VI).

    Each window is decomposed independently; for every month where both
    trends are defined the signed variation (sum_b - sum_a) / sum_a * 100
    is reported.
    """
    dec_a = decompose_additive(slice_window(series_full, *window_a))
    dec_b = decompose_additive(slice_window(series_full, *window_b))
    trend_a, trend_b = dec_a.trend_series(), dec_b.trend_series()
    lo = max(trend_a.start, trend_b.start)
    hi = min(trend_a.end, trend_b.end)
    if lo > hi:
        raise NoOverlapError("the defined-trend ranges of the windows do not overlap")
    rows = []
    for k in range(lo.months_until(hi) + 1):
        month = lo.offset(k)
        t_a = trend_a.values[trend_a.index_of(month)]
        t_b = trend_b.values[trend_b.index_of(month)]
        s_a, s_b = dec_a.seasonal_index_for(month), dec_b.seasonal_index_for(month)
        sum_a, sum_b = t_a + s_a, t_b + s_b
        rows.append(StabilityRow(
            month=month, trend_a=t_a, seasonal_a=s_a, sum_a=sum_a,
            trend_b=t_b, seasonal_b=s_b, sum_b=sum_b,
            variation_pct=(sum_b - sum_a) / sum_a * 100.0))
    return tuple(rows)


def _amplitude(percentages) -> float:
    defined = [abs(v) for v in percentages if v is not None]
    return math.fsum(defined) / len(defined)


def compare_hypotheses(series_1: MonthlyTimeSeries,
                       series_2: MonthlyTimeSeries) -> HypothesisReport:
    """Compare seasonal and random amplitudes of two series.

    Amplitude is the mean absolute component percentage over the months
    where the component is defined.
    """
    dec_1, dec_2 = decompose_additive(series_1), decompose_additive(series_2)
    seasonal_1 = component_percentage(series_1, dec_1.seasonal)
    seasonal_2 = component_percentage(series_2, dec_2.seasonal)
    random_1 = component_percentage(series_1, dec_1.random)
    random_2 = component_percentage(series_2, dec_2.random)
    s1, s2 = _amplitude(seasonal_1), _amplitude(seasonal_2)
    r1, r2 = _amplitude(random_1), _amplitude(random_2)
    return HypothesisReport(
        seasonal_amplitude_1=s1, seasonal_amplitude_2=s2,
        random_amplitude_1=r1, random_amplitude_2=r2,
        first_more_seasonal=s1 > s2, second_more_random=r2 > r1,
        seasonal_pct_1=seasonal_1, seasonal_pct_2=seasonal_2,
        random_pct_1=random_1, random_pct_2=random_2)
