"""Forecast-evaluation protocols and accuracy metrics.

Methods I, II, IV and V pair an engine (Holt-Winters or ARIMA) with a list
of forecast origins, and one core evaluates them all: the engine fits once
per origin on the series up to it, and the core keeps the forecasts at the
given steps past it.  The fixed-origin protocol (I and IV) is one origin
with steps 1..h; the rolling protocol (II and V) refits before every month,
so it is h origins with step 1.  The Holt-Winters engine fits all the
origins' windows in one grid pass (see ``holtwinters``); ARIMA selects an
order on each window.  Every evaluation month is checked before the first
fit.  Method III forecasts the trend-plus-seasonal aggregate built on the
decomposed trend, and method VI compares two windows for structural
stability.  Errors are absolute percentage errors; summary standard
deviations use the n-1 denominator.  ``run_method`` runs any of the methods
I-V by its id in ``METHODS``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Literal

from .arima import forecast_arima, select_order
from .decompose import component_percentage, decompose_additive
from .errors import (InsufficientDataError, NoOverlapError, OutOfRangeError,
                     SeriesTooShortError)
from .holtwinters import _fit_windows, fit_holt_winters, forecast_hw
from .series import METHODS, MonthlyTimeSeries, MonthStamp, slice_window

Engine = Literal["holt_winters", "arima"]

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


def _summarize_errors(apes) -> ErrorSummary:
    """Min, max, mean, and sample (n-1) standard deviation of two or more
    errors; every caller has checked the count."""
    values = [float(v) for v in apes]
    return ErrorSummary(min=min(values), max=max(values),
                        mean=statistics.fmean(values),
                        sd=statistics.stdev(values))


def _report(method_id, months, actuals, forecasts) -> MethodReport:
    rows = []
    for m, a, f in zip(months, actuals, forecasts):
        if a == 0:
            raise ZeroDivisionError(f"actual value is zero at {m}")
        rows.append(ForecastRow(m, a, f, absolute_percentage_error(a, f)))
    return MethodReport(method_id, tuple(rows),
                        _summarize_errors(r.ape for r in rows))


# each engine takes the series, the ascending origins and h, and returns one
# forecast path per origin, h months past it, from a fit on the months
# series.start..origin; Holt-Winters fits every window in one shared grid
# pass, ARIMA selects an order on each window.  The lambdas look the fit
# functions up at call time, so a wrapper set on this module sees every call
_ENGINES = {
    "holt_winters": lambda series, origins, h: [
        forecast_hw(model, h) for model in _fit_windows(series, origins)],
    "arima": lambda series, origins, h: [
        forecast_arima(select_order(slice_window(series, series.start, origin)), h)
        for origin in origins],
}


def _evaluate(series: MonthlyTimeSeries, engine: Engine, protocol: str,
              origins, steps) -> MethodReport:
    # one forecast path per origin, kept at `steps` months past it; every
    # evaluation month is looked up before the first fit
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    months = [origin.offset(h) for origin in origins for h in steps]
    actuals = [series.values[series.index_of(m)] for m in months]
    if len(months) < 2:
        raise InsufficientDataError(
            f"need at least 2 errors to summarize, got {len(months)}")
    paths = _ENGINES[engine](series, origins, steps[-1])
    forecasts = [path[h - 1] for path in paths for h in steps]
    return _report(_METHOD_ID[engine, protocol], months, actuals, forecasts)


def run_fixed_origin(series: MonthlyTimeSeries, engine: Engine,
                     train_end: MonthStamp, horizon: int) -> MethodReport:
    """Fit once through train_end, forecast `horizon` months (method I/IV).

    The ARIMA engine forecasts from the model that order selection on the
    training window picked and fitted.  A horizon of 1 cannot be summarized
    and raises InsufficientDataError before the fit.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return _evaluate(series, engine, "fixed", [train_end], range(1, horizon + 1))


def run_rolling(series: MonthlyTimeSeries, engine: Engine,
                eval_start: MonthStamp, eval_end: MonthStamp,
                workers: int = 1) -> MethodReport:
    """Refit before every month and forecast one step (method II/V).

    For each month m in the window, the model trains on everything up to
    m-1; the ARIMA engine re-runs order selection every month.  The refits
    run one after another in the calling process.  `workers` is kept only
    for callers that still pass 1, of which ``bench/workloads.py`` is the
    one left (ROADMAP item 2); any other value raises ValueError.  A
    one-month window cannot be summarized and raises InsufficientDataError
    before any fit.
    """
    if workers != 1:
        raise ValueError(f"run_rolling runs in one process; workers must be "
                         f"1, got {workers!r}")
    if eval_start > eval_end:
        raise OutOfRangeError(f"empty evaluation window {eval_start}..{eval_end}")
    origins = [eval_start.offset(k)
               for k in range(-1, eval_start.months_until(eval_end))]
    return _evaluate(series, engine, "rolling", origins, (1,))


def run_trend_seasonal(series_full: MonthlyTimeSeries,
                       train_end: MonthStamp) -> MethodReport:
    """Forecast the trend+seasonal aggregate over a 12-month window (method III).

    The training window [start, train_end] is decomposed; Holt-Winters is
    fitted to its defined trend and projected over the 12 months after it,
    train_end-5 .. train_end+6.  Each projected trend value plus the
    training seasonal index forms the forecast sum.  The actual sum is the
    full series' trend plus seasonal index over the same months, so its
    trend must be defined through the last of them: the series must extend
    6 months past the window, which is checked before the fit.  The trend
    lacks the window's first and last 6 months and Holt-Winters needs 25,
    so a window under 37 months raises SeriesTooShortError naming both
    lengths, before anything is decomposed.
    """
    train = slice_window(series_full, series_full.start, train_end)
    if len(train) < 37:
        raise SeriesTooShortError(
            f"method III needs at least 37 training months, whose trend has the "
            f"25 that Holt-Winters needs; got {len(train)} months with a "
            f"{max(len(train) - 12, 0)}-month trend")
    train_dec = decompose_additive(train)
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
               train_end: MonthStamp | None = None, horizon: int = 12) -> MethodReport:
    """Run method I-V of ``METHODS`` with training data through train_end.

    I and IV fit once and forecast the `horizon` months after train_end; II
    and V refit before each of them.  III always covers 12 months.  Without
    train_end the last `horizon` months are forecast, as the paper trains
    through 2014 and tests on 2015.  An unknown id, a horizon below 1, or
    III with another horizon, raises ValueError before any fit.
    """
    if method_id not in METHODS:
        raise ValueError(f"unknown method {method_id!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    train_end = train_end or series.end.offset(-horizon)
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
                         window_a: tuple[MonthStamp, MonthStamp] | None = None,
                         window_b: tuple[MonthStamp, MonthStamp] | None = None,
                         ) -> tuple[StabilityRow, ...]:
    """Compare trend+seasonal sums from two windows over their overlap (method VI).

    Each window is decomposed independently; for every month where both
    trends are defined the signed variation (sum_b - sum_a) / sum_a * 100
    is reported.  By default window_a is all but the last year and window_b
    all but the first, as the paper compares 2010-2014 with 2011-2015; with
    both defaults a series shorter than 37 months raises SeriesTooShortError,
    and a month where window A's sum is zero raises ZeroDivisionError naming
    the month.
    """
    # each default window's 2x12 trend leaves out 6 months at either end,
    # so the two overlap only from 37 months on
    if not (window_a or window_b) and len(series_full) < 37:
        raise SeriesTooShortError("the default windows need at least 37 "
                                  f"months, got {len(series_full)}")
    window_a = window_a or (series_full.start, series_full.end.offset(-12))
    window_b = window_b or (series_full.start.offset(12), series_full.end)
    dec_a = decompose_additive(slice_window(series_full, *window_a))
    dec_b = decompose_additive(slice_window(series_full, *window_b))
    trend_a, trend_b = dec_a.trend_series(), dec_b.trend_series()
    lo = max(trend_a.start, trend_b.start)
    hi = min(trend_a.end, trend_b.end)
    if lo > hi:
        raise NoOverlapError("the defined-trend ranges of the windows do not overlap")
    count = lo.months_until(hi) + 1
    i_a, i_b = trend_a.index_of(lo), trend_b.index_of(lo)
    indices_a, indices_b = dec_a.seasonal_indices, dec_b.seasonal_indices
    rows = []
    for month, t_a, t_b in zip(trend_a.months()[i_a:i_a + count],
                               trend_a.values[i_a:i_a + count],
                               trend_b.values[i_b:i_b + count]):
        s_a, s_b = indices_a[month.month - 1], indices_b[month.month - 1]
        sum_a, sum_b = t_a + s_a, t_b + s_b
        if sum_a == 0:
            raise ZeroDivisionError(
                f"window A's trend plus seasonal sum is zero at {month}")
        rows.append(StabilityRow(
            month=month, trend_a=t_a, seasonal_a=s_a, sum_a=sum_a,
            trend_b=t_b, seasonal_b=s_b, sum_b=sum_b,
            variation_pct=(sum_b - sum_a) / sum_a * 100.0))
    return tuple(rows)


def _amplitude(percentages) -> float:
    return statistics.fmean(abs(v) for v in percentages if v is not None)


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
