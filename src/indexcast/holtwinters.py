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
Nelder-Mead internals.  Training windows that start in the same month and
end in ascending months, as the rolling protocol's do, share the grid: the
filter resumes from the state it stopped in, so one grid pass runs through
each window's end in turn, each window is refined from its own grid
winner, and each model equals the fit of its window alone.  Everything is
deterministic: identical series produce identical models, and a series
scaled by a power of two gives the same constants.

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


def _run_filter(values, month_idx, start, state, alpha, beta, gamma):
    """Run the smoothing recursions for (alpha, beta, gamma) from step start.

    ``state`` is the (level, slope, seasonal, sse) the recursions stand in
    before step ``start``; the state after the last step, len(values) - 1,
    is returned, so a run can stop at the end of one training window and
    resume for a longer one.  One loop runs every step: steps 12..23 warm
    up, and from step 24 on each squared one-step error is added to sse
    before the state moves on.  A run from step 12 starts in the state
    ``_state_of`` gives.

    The body uses only ``+ - *`` and list indexing, so the constants may be
    plain floats (one triple: the refine and the final state) or
    equal-length numpy arrays (every grid triple at once, elementwise).
    Each element goes through the same IEEE operations in the same order
    either way, and that order fixes the fitted results bit for bit, so
    keep it.  ``sse = sse + ...`` makes a new array, so the sse of a state
    already returned is never changed in place.
    """
    level, slope, seasonal, sse = state
    seasonal = list(seasonal)
    keep_level, keep_slope, keep_seasonal = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    for t in range(start, len(values)):
        m = month_idx[t]
        y, s_prev, level_ahead = values[t], seasonal[m], level + slope
        if t >= 24:
            err = y - (level_ahead + s_prev)
            sse = sse + err * err
        new_level = alpha * (y - s_prev) + keep_level * level_ahead
        slope = beta * (new_level - level) + keep_slope * slope
        seasonal[m] = gamma * (y - new_level) + keep_seasonal * s_prev
        level = new_level
    return level, slope, seasonal, sse


def _state_of(series: MonthlyTimeSeries):
    """``_run_filter``'s leading arguments from step 12: values, calendar
    months and the start state (level, slope, seasonal[12], sse 0.0).

    The state comes from the first two years alone.  ``_cma_trend`` of the
    first 24 values gives the twelve trend values at positions 6..17; a least
    squares line through them gives the level and slope, and
    ``_seasonal_indices`` the seasonal figures, keyed by calendar month
    (January first) and centered to sum to zero.  Values that overflow
    give a non-finite state, which the fit's ``isfinite`` check reports.
    """
    trend = _cma_trend(series.values[:24])  # twelve values
    k = np.arange(1.0, 13.0)
    # arrays warn where floats overflow quietly; the isfinite check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        slope0 = float(((k - k.mean()) * (trend - trend.mean())).sum()
                       / ((k - k.mean()) ** 2).sum())
        level0 = float(trend.mean() - slope0 * k.mean())
    seasonal0 = _seasonal_indices(series, trend)
    return series.values, series.month_indices(), (level0, slope0, seasonal0, 0.0)


def _fit_windows(series: MonthlyTimeSeries, ends) -> list[HoltWintersModel]:
    """One model per training window series.start..end, for ascending ends.

    Each model equals ``fit_holt_winters`` of that window, field by field,
    and the errors are those the window fits raise one at a time, in order;
    an end outside the series raises ``index_of``'s OutOfRangeError.
    Every window starts in the same state from the first two years and
    holds the values of the one before it, so each grid SSE of a window is
    the previous window's grid pass run on through the months it adds:
    the 11x11x11 grid runs once, through each end in turn.  At an end, its
    first minimum is the lexicographic tie-break of the raveled
    ``indexing="ij"`` meshgrid and seeds the bounded ``_simplex.minimize``
    refine on plain floats, with the tolerances described above; the model
    carries the terminal level, slope and the latest seasonal estimate per
    calendar month of a final float run over the window.
    """
    stops = [series.index_of(end) + 1 for end in ends]
    if stops[0] < 25:  # months 25..n are scored
        raise SeriesTooShortError(f"scoring needs at least 25 months, got {stops[0]}")
    values, month_idx, start_state = _state_of(series)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    abg = [axis.ravel() for axis in np.meshgrid(grid, grid, grid, indexing="ij")]
    grid_state, resume, models = start_state, 12, []
    for end, stop in zip(ends, stops):
        window = values[:stop], month_idx[:stop]
        # arrays warn where floats overflow quietly; the isfinite check reports it
        with np.errstate(over="ignore", invalid="ignore"):
            grid_state = _run_filter(*window, resume, grid_state, *abg)
        resume = stop
        sse = grid_state[3]
        best_flat = int(np.argmin(sse))  # first minimum = lexicographic tie-break
        best = tuple(float(axis[best_flat]) for axis in abg)
        best_sse = float(sse[best_flat])
        if not np.isfinite(best_sse):
            raise ComputationError(
                f"one-step sum of squares is not finite ({best_sse!r}); "
                "the series overflows")

        def objective(x):
            return _run_filter(*window, 12, start_state, *x)[3]

        result = minimize(objective, best, bounds=(0.0, 1.0),
                          xatol=SIMPLEX_DIAMETER, fatol=1e-10 * best_sse,
                          maxfev=_MAX_REFINE_EVALS)
        if result.fun < best_sse:
            best = result.x
        level, slope, seasonal, final_sse = _run_filter(*window, 12, start_state, *best)
        models.append(HoltWintersModel(
            params=HoltWintersParams(*best),
            level=level,
            trend_slope=slope,
            seasonal_state=tuple(seasonal),
            sse=final_sse,
            train_span=(series.start, end),
        ))
    return models


def fit_holt_winters(series: MonthlyTimeSeries) -> HoltWintersModel:
    """Fit smoothing constants by one-step SSE minimization.

    The 11x11x11 grid is scored in one ``_run_filter`` call on numpy
    arrays; its first minimum, the smallest triple in lexicographic order,
    seeds the bounded Nelder-Mead refine.  The model carries the terminal
    level, slope, and the latest seasonal estimate per calendar month.
    """
    return _fit_windows(series, [series.end])[0]


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
