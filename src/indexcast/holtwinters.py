"""Additive Holt-Winters smoothing: level, linear trend, period-12 seasonal.

The smoothing constants are chosen by minimizing the one-step-ahead sum of
squared errors: an 11x11x11 grid over [0,1]^3 picks a starting point (ties
broken toward the smallest triple in lexicographic order) and a bounded
Nelder-Mead simplex refines it until the simplex diameter falls below 1e-4
and the SSE spread below 1e-10 of the grid's best SSE.  Both stages run the
same filter: the grid scores all 1331 triples in one call on numpy arrays,
the refine runs it on plain floats one triple at a time, and both perform
the same IEEE operations in the same order, so they agree bit for bit.
The simplex is the package's plain-float copy of scipy's
(``_simplex.minimize``), so the constants no longer depend on scipy's
Nelder-Mead internals.  Everything is deterministic: identical series
produce identical models, and a series scaled by a power of two gives the
same constants.

Starting state comes from a classical decomposition of the first two years,
computed by ``decompose``'s private helpers: a 2x12 centered moving average
gives twelve interior trend values, a least squares line through them
supplies the starting level and slope, and the centered calendar-month
means of the detrended values supply the starting seasonal figures.  The
recursions then warm up over the second year; only predictions for
observations 25..n are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._simplex import minimize
from .decompose import _cma_trend, _seasonal_indices
from .errors import ComputationError, SeriesTooShortError
from .series import MonthlyTimeSeries, MonthStamp

GRID_POINTS = 11
SIMPLEX_DIAMETER = 1e-4
_MAX_REFINE_EVALS = 2000


@dataclass(frozen=True)
class HoltWintersParams:
    """Smoothing constants, each in [0, 1]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name, v in (("alpha", self.alpha), ("beta", self.beta),
                        ("gamma", self.gamma)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class HoltWintersModel:
    """Fitted smoothing constants and terminal state.

    ``seasonal_state`` holds the most recent seasonal estimate per calendar
    month, January first.  ``sse`` is the training one-step sum of squared
    errors at the fitted constants.
    """

    params: HoltWintersParams
    level: float
    trend_slope: float
    seasonal_state: tuple[float, ...]
    sse: float
    train_span: tuple[MonthStamp, MonthStamp]


def _run_filter(values, month_idx, level0, slope0, seasonal0, alpha, beta, gamma):
    """Run the smoothing recursions for (alpha, beta, gamma).

    The body uses only ``+ - *``, an integer test and list indexing, so the
    constants may be plain floats (one triple: the refine, ``one_step_sse``
    and the final state) or equal-length numpy arrays (every grid triple at
    once, elementwise).  Each element goes through the same IEEE operations
    in the same order either way, and that order fixes the fitted results
    bit for bit, so keep it.  Returns (sse, level, slope, seasonal list),
    arrays where the constants are arrays.
    """
    level, slope = level0, slope0
    seasonal = list(seasonal0)
    sse = 0.0
    for t in range(12, len(values)):
        m = month_idx[t]
        s_prev = seasonal[m]
        if t >= 24:
            err = values[t] - (level + slope + s_prev)
            sse += err * err
        new_level = alpha * (values[t] - s_prev) + (1.0 - alpha) * (level + slope)
        slope = beta * (new_level - level) + (1.0 - beta) * slope
        seasonal[m] = gamma * (values[t] - new_level) + (1.0 - gamma) * s_prev
        level = new_level
    return sse, level, slope, seasonal


def _state_of(series: MonthlyTimeSeries):
    """``_run_filter``'s leading arguments: values, calendar months and the
    starting (level, slope, seasonal[12]) from the first two years.

    The seasonal figures are keyed by calendar month (January first) and
    centered to sum to zero.
    """
    if len(series) < 25:  # months 25..n are scored
        raise SeriesTooShortError(
            f"scoring needs at least 25 months, got {len(series)}")
    first_two_years = MonthlyTimeSeries(series.start, series.values[:24])
    full_trend = _cma_trend(first_two_years)
    trend = np.array([t for t in full_trend if t is not None])  # twelve values
    k = np.arange(1.0, 13.0)
    slope0 = float(((k - k.mean()) * (trend - trend.mean())).sum()
                   / ((k - k.mean()) ** 2).sum())
    level0 = float(trend.mean() - slope0 * k.mean())
    seasonal0 = _seasonal_indices(first_two_years, full_trend)
    return series.values, series.month_indices(), level0, slope0, seasonal0


def one_step_sse(series: MonthlyTimeSeries, params: HoltWintersParams) -> float:
    """Sum of squared one-step errors over observations 25..n.

    Public because it scores any constants from what a user holds, a series
    and ``HoltWintersParams``, not only fitted ones; it also defines
    ``HoltWintersModel.sse``, which is this sum at the model's ``params``.
    """
    sse, *_ = _run_filter(*_state_of(series),
                          params.alpha, params.beta, params.gamma)
    return sse


def fit_holt_winters(series: MonthlyTimeSeries) -> HoltWintersModel:
    """Fit smoothing constants by one-step SSE minimization.

    The grid is scored in one ``_run_filter`` call on the raveled
    ``indexing="ij"`` meshgrid, so its first minimum is the lexicographic
    tie-break, and seeds the bounded ``_simplex.minimize`` refine, on plain
    floats, with the tolerances described above.  The model carries the
    terminal level, slope, and the latest seasonal estimate per calendar
    month.
    """
    state = _state_of(series)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    abg = [axis.ravel() for axis in np.meshgrid(grid, grid, grid, indexing="ij")]
    # arrays warn where floats overflow quietly; the isfinite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        sse = _run_filter(*state, *abg)[0]
    best_flat = int(np.argmin(sse))  # first minimum = lexicographic tie-break
    best = tuple(float(axis[best_flat]) for axis in abg)
    best_sse = float(sse[best_flat])
    if not np.isfinite(best_sse):
        raise ComputationError(
            f"one-step sum of squares is not finite ({best_sse!r}); "
            "the series overflows")

    def objective(x):
        return _run_filter(*state, *x)[0]

    result = minimize(objective, best, bounds=[(0.0, 1.0)] * 3,
                      xatol=SIMPLEX_DIAMETER, fatol=1e-10 * best_sse,
                      maxfev=_MAX_REFINE_EVALS)
    if result.fun < best_sse:
        best = result.x
    final_sse, level, slope, seasonal = _run_filter(*state, *best)
    return HoltWintersModel(
        params=HoltWintersParams(*best),
        level=level,
        trend_slope=slope,
        seasonal_state=tuple(seasonal),
        sse=final_sse,
        train_span=(series.start, series.end),
    )


def forecast_hw(model: HoltWintersModel, horizon: int) -> tuple[float, ...]:
    """Project level + h*slope + seasonal figure, h = 1..horizon."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    train_end = model.train_span[1]
    out = []
    for h in range(1, horizon + 1):
        month = train_end.offset(h).month_index
        out.append(model.level + h * model.trend_slope + model.seasonal_state[month])
    return tuple(out)
