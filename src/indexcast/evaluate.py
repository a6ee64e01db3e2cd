"""Forecast-evaluation protocols and accuracy metrics.

Six protocols are provided: fixed-origin 12-month forecasts (methods I and
IV, Holt-Winters and ARIMA), rolling one-month-ahead forecasts with a
refit before every month (II and V), a trend-plus-seasonal aggregate
forecast built on the decomposed trend (III), and a two-window structural
stability comparison (VI).  Errors are absolute percentage errors; summary
standard deviations use the n-1 denominator.
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
    amplitude.  Ties yield False.
    """

    seasonal_amplitude_1: float
    seasonal_amplitude_2: float
    random_amplitude_1: float
    random_amplitude_2: float
    first_more_seasonal: bool
    second_more_random: bool


def absolute_percentage_error(actual: float, forecast: float) -> float:
    """|forecast - actual| / |actual| * 100."""
    if actual == 0:
        raise ZeroDivisionError("actual value is zero")
    return abs(forecast - actual) / abs(actual) * 100.0


def summarize_errors(apes) -> ErrorSummary:
    """Min, max, mean, and sample (n-1) standard deviation."""
    values = [float(v) for v in apes]
    if len(values) < 2:
        raise InsufficientDataError(
            f"need at least 2 errors to summarize, got {len(values)}")
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
    training window picked and fitted.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    series.index_of(train_end.offset(horizon))  # evaluation months in span
    train = slice_window(series, series.start, train_end)
    forecasts = _fit_forecast(train, engine, horizon)
    months = [train_end.offset(h) for h in range(1, horizon + 1)]
    actuals = [series.values[series.index_of(m)] for m in months]
    return _report(_METHOD_ID[engine, "fixed"], months, actuals, forecasts)


def _one_step_refit(series: MonthlyTimeSeries, engine: Engine,
                    month: MonthStamp) -> float:
    train = slice_window(series, series.start, month.offset(-1))
    return _fit_forecast(train, engine, 1)[0]


def run_rolling(series: MonthlyTimeSeries, engine: Engine,
                eval_start: MonthStamp, eval_end: MonthStamp,
                workers: int = 1) -> MethodReport:
    """Refit before every month and forecast one step (method II/V).

    For each month m in the window, the model trains on everything up to
    m-1; the ARIMA engine re-runs order selection every month.  The
    monthly refits are independent, so `workers` > 1 runs them in a
    process pool; results are assembled in calendar order either way.
    """
    if eval_start > eval_end:
        raise OutOfRangeError(f"empty evaluation window {eval_start}..{eval_end}")
    series.index_of(eval_start)
    series.index_of(eval_end)
    months = [eval_start.offset(k)
              for k in range(eval_start.months_until(eval_end) + 1)]
    if workers > 1:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            forecasts = list(pool.map(_one_step_refit, [series] * len(months),
                                      [engine] * len(months), months))
    else:
        forecasts = [_one_step_refit(series, engine, month) for month in months]
    actuals = [series.values[series.index_of(month)] for month in months]
    return _report(_METHOD_ID[engine, "rolling"], months, actuals, forecasts)


def run_trend_seasonal(series_full: MonthlyTimeSeries,
                       train_end: MonthStamp) -> MethodReport:
    """Forecast the trend+seasonal aggregate over a 12-month window (method III).

    The training window [start, train_end] is decomposed; Holt-Winters is
    fitted to its defined trend and projected 12 months, covering
    train_end-5 .. train_end+6.  Each projected trend value plus the
    training seasonal index forms the forecast sum.  The actual sum uses
    the full series' decomposition over the same months, so the full series
    must extend at least 6 months past the evaluation window.
    """
    eval_months = [train_end.offset(h) for h in range(-5, 7)]
    series_full.index_of(eval_months[-1].offset(6))  # need trend there
    train = slice_window(series_full, series_full.start, train_end)
    train_dec = decompose_additive(train)
    trend_model = fit_holt_winters(train_dec.trend_series())
    trend_fc = forecast_hw(trend_model, 12)
    full_dec = decompose_additive(series_full)
    months, actuals, forecasts = [], [], []
    for month, fc_trend in zip(eval_months, trend_fc):
        i = series_full.index_of(month)
        actual_trend = full_dec.trend[i]
        if actual_trend is None:
            raise OutOfRangeError(f"full-series trend undefined at {month}")
        months.append(month)
        actuals.append(actual_trend + full_dec.seasonal_index_for(month))
        forecasts.append(fc_trend + train_dec.seasonal_index_for(month))
    return _report("III", months, actuals, forecasts)


def structural_stability(series_full: MonthlyTimeSeries,
                         window_a: tuple[MonthStamp, MonthStamp],
                         window_b: tuple[MonthStamp, MonthStamp]) -> tuple[StabilityRow, ...]:
    """Compare trend+seasonal sums from two windows over their overlap (method VI).

    Each window is decomposed independently; for every month where both
    trends are defined the signed variation (sum_b - sum_a) / sum_a * 100
    is reported.
    """
    slice_a = slice_window(series_full, *window_a)
    slice_b = slice_window(series_full, *window_b)
    dec_a = decompose_additive(slice_a)
    dec_b = decompose_additive(slice_b)
    lo = max(window_a[0].offset(6), window_b[0].offset(6))
    hi = min(window_a[1].offset(-6), window_b[1].offset(-6))
    if lo > hi:
        raise NoOverlapError("the defined-trend ranges of the windows do not overlap")
    rows = []
    for k in range(lo.months_until(hi) + 1):
        month = lo.offset(k)
        trend_a = dec_a.trend[slice_a.index_of(month)]
        trend_b = dec_b.trend[slice_b.index_of(month)]
        seasonal_a = dec_a.seasonal_index_for(month)
        seasonal_b = dec_b.seasonal_index_for(month)
        sum_a = trend_a + seasonal_a
        sum_b = trend_b + seasonal_b
        rows.append(StabilityRow(
            month=month, trend_a=trend_a, seasonal_a=seasonal_a, sum_a=sum_a,
            trend_b=trend_b, seasonal_b=seasonal_b, sum_b=sum_b,
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
    dec_1 = decompose_additive(series_1)
    dec_2 = decompose_additive(series_2)
    s1 = _amplitude(component_percentage(series_1, dec_1.seasonal))
    s2 = _amplitude(component_percentage(series_2, dec_2.seasonal))
    r1 = _amplitude(component_percentage(series_1, dec_1.random))
    r2 = _amplitude(component_percentage(series_2, dec_2.random))
    return HypothesisReport(
        seasonal_amplitude_1=s1, seasonal_amplitude_2=s2,
        random_amplitude_1=r1, random_amplitude_2=r2,
        first_more_seasonal=s1 > s2,
        second_more_random=r2 > r1)
