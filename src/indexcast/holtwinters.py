"""Additive Holt-Winters smoothing: level, linear trend, period-12 seasonal.

The smoothing constants are chosen by minimizing the one-step-ahead sum of
squared errors: an 11x11x11 grid over [0,1]^3 picks a starting point (ties
broken toward the smallest triple in lexicographic order) and Nelder-Mead
refines it until the simplex diameter falls below 1e-4.  Everything is
deterministic: identical series produce identical models.

Starting state comes from a classical decomposition of the first two years:
a 2x12 centered moving average gives twelve interior trend values, a least
squares line through them supplies the starting level and slope, and the
centered calendar-month means of the detrended values supply the starting
seasonal figures.  The recursions then warm up over the second year; only
predictions for observations 25..n are scored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .decompose import centered_moving_average_trend, seasonal_indices
from .errors import SeriesTooShortError
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

    def summary(self) -> str:
        lines = [
            f"alpha={self.params.alpha!r}",
            f"beta={self.params.beta!r}",
            f"gamma={self.params.gamma!r}",
            f"sse={self.sse!r}",
            f"level={self.level!r}",
            f"slope={self.trend_slope!r}",
            "seasonal=" + ",".join(repr(v) for v in self.seasonal_state),
        ]
        return "\n".join(lines)


def initialize_state(series: MonthlyTimeSeries) -> tuple[float, float, tuple[float, ...]]:
    """Starting (level, slope, seasonal[12]) from the first two years.

    The seasonal figures are keyed by calendar month (January first) and
    centered to sum to zero.  Requires at least 24 observations.
    """
    if len(series) < 24:
        raise SeriesTooShortError(
            f"initialization needs at least 24 months, got {len(series)}")
    first_two_years = MonthlyTimeSeries(series.start, series.values[:24])
    full_trend = centered_moving_average_trend(first_two_years)
    trend = np.array(full_trend[6:18])  # the twelve defined positions
    k = np.arange(1.0, 13.0)
    slope0 = float(((k - k.mean()) * (trend - trend.mean())).sum()
                   / ((k - k.mean()) ** 2).sum())
    level0 = float(trend.mean() - slope0 * k.mean())
    return level0, slope0, seasonal_indices(first_two_years, full_trend)


def _run_filter(values, month_idx, level0, slope0, seasonal0, alpha, beta, gamma):
    """Run the smoothing recursions for one or many parameter triples.

    Parameters may be scalars or equal-length 1-d arrays; the same
    elementwise operation order is used either way, so grid and scalar
    evaluations agree bit for bit.  Returns (sse, level, slope, seasonal)
    arrays with the parameter axis leading.
    """
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    b = np.atleast_1d(np.asarray(beta, dtype=float))
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    width = max(a.size, b.size, g.size)
    a = np.broadcast_to(a, (width,))
    b = np.broadcast_to(b, (width,))
    g = np.broadcast_to(g, (width,))
    level = np.full(width, level0)
    slope = np.full(width, slope0)
    seasonal = np.tile(np.asarray(seasonal0, dtype=float), (width, 1))
    sse = np.zeros(width)
    n = len(values)
    for t in range(12, n):
        m = month_idx[t]
        s_prev = seasonal[:, m].copy()
        if t >= 24:
            err = values[t] - (level + slope + s_prev)
            sse += err * err
        new_level = a * (values[t] - s_prev) + (1.0 - a) * (level + slope)
        slope = b * (new_level - level) + (1.0 - b) * slope
        seasonal[:, m] = g * (values[t] - new_level) + (1.0 - g) * s_prev
        level = new_level
    return sse, level, slope, seasonal


def _state_of(series: MonthlyTimeSeries):
    level0, slope0, seasonal0 = initialize_state(series)
    return (np.asarray(series.values), series.month_indices(),
            level0, slope0, seasonal0)


def one_step_sse(series: MonthlyTimeSeries, params: HoltWintersParams) -> float:
    """Sum of squared one-step errors over observations 25..n."""
    values, month_idx, level0, slope0, seasonal0 = _state_of(series)
    sse, *_ = _run_filter(values, month_idx, level0, slope0, seasonal0,
                          params.alpha, params.beta, params.gamma)
    return float(sse[0])


def fit_holt_winters(series: MonthlyTimeSeries) -> HoltWintersModel:
    """Fit smoothing constants by one-step SSE minimization.

    Deterministic: a coarse grid pass (ties toward the lexicographically
    smallest triple) followed by bounded Nelder-Mead refinement from the
    best grid point.  The model carries the terminal level, slope, and the
    latest seasonal estimate per calendar month.
    """
    if len(series) < 25:  # months 25..n are scored
        raise SeriesTooShortError(
            f"fitting needs at least 25 months, got {len(series)}")
    values, month_idx, level0, slope0, seasonal0 = _state_of(series)
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    aa, bb, gg = np.meshgrid(grid, grid, grid, indexing="ij")
    sse, *_ = _run_filter(values, month_idx, level0, slope0, seasonal0,
                          aa.ravel(), bb.ravel(), gg.ravel())
    best_flat = int(np.argmin(sse))  # first minimum = lexicographic tie-break
    best = np.array([aa.ravel()[best_flat], bb.ravel()[best_flat],
                     gg.ravel()[best_flat]])
    best_sse = float(sse[best_flat])

    def objective(x):
        v, *_ = _run_filter(values, month_idx, level0, slope0, seasonal0,
                            x[0], x[1], x[2])
        return float(v[0])

    result = minimize(objective, best, method="Nelder-Mead",
                      bounds=[(0.0, 1.0)] * 3,
                      options=dict(xatol=SIMPLEX_DIAMETER,
                                   fatol=1e-10 * (1.0 + best_sse),
                                   maxfev=_MAX_REFINE_EVALS))
    if result.fun < best_sse:
        best, best_sse = np.clip(result.x, 0.0, 1.0), float(result.fun)
    final_sse, level, slope, seasonal = _run_filter(
        values, month_idx, level0, slope0, seasonal0, best[0], best[1], best[2])
    return HoltWintersModel(
        params=HoltWintersParams(float(best[0]), float(best[1]), float(best[2])),
        level=float(level[0]),
        trend_slope=float(slope[0]),
        seasonal_state=tuple(float(v) for v in seasonal[0]),
        sse=float(final_sse[0]),
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
