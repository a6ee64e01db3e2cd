"""ARIMA(p,d,q) with optional drift, fitted by conditional sum of squares.

The d = 0 mean, or the drift, is the sample mean of the (differenced)
series and is removed before the fit, as in the mean correction of
Brockwell & Davis (*Introduction to Time Series and Forecasting*, section
5.1).  The coefficients then minimize the CSS objective (pre-sample
innovations zero) by a bounded Nelder-Mead simplex from an all-zero start,
the bounds keeping every coefficient in |coef| <= 0.99.  The simplex is the
package's own plain-float copy of scipy's (``_simplex.minimize``), so
fitted values no longer depend on scipy's Nelder-Mead internals.  Orders
are selected by the stepwise search of Hyndman & Khandakar (2008), which
walks p, q in 0..5 and the drift flag one step at a time toward lower
small-sample-corrected AIC and fits about a dozen of the 72 candidates.
Every candidate's AICc is computed over the same n - d differenced
observations, whatever its p, so the comparison does not depend on the
units of the data; candidates whose simplex did not converge, whose AICc
is not finite, or whose AR or MA polynomial has a root on or inside the
unit circle (not stationary or not invertible), score +inf; the winner is
returned as fitted.  Forecasts iterate the ARMA recursion on the
differenced scale with future innovations set to zero, then re-integrate
from the retained training tail.  The CSS residuals' MA recursion runs in
scipy's C IIR filter, which is loaded without the rest of ``scipy.signal``
(``_load_linear_filter``); scipy is needed for this routine alone.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from ._simplex import minimize
from .errors import SelectionFailedError, SeriesTooShortError
from .series import MonthlyTimeSeries

MAX_P = 5
MAX_Q = 5
MAX_D = 2
COEF_BOUND = 0.99
_EVALS_PER_DIM = 200
_ACF1_STATIONARY = 0.9
# the stepwise search's moves of (p, q), in the order they are tried
_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1),
          (-1, -1), (-1, 1), (1, -1), (1, 1))


@dataclass(frozen=True)
class ArimaOrder:
    """Model order: AR lags, differences, MA lags, optional drift."""

    p: int
    d: int
    q: int
    drift: bool = False

    def __post_init__(self):
        if not 0 <= self.p <= MAX_P:
            raise ValueError(f"p must be in 0..{MAX_P}, got {self.p}")
        if not 0 <= self.q <= MAX_Q:
            raise ValueError(f"q must be in 0..{MAX_Q}, got {self.q}")
        if not 0 <= self.d <= MAX_D:
            raise ValueError(f"d must be in 0..{MAX_D}, got {self.d}")
        if self.drift and self.d < 1:
            raise ValueError("drift requires d >= 1; with d=0 the series "
                             "mean is removed instead")


@dataclass(frozen=True)
class ArimaModel:
    """Fitted coefficients, innovation variance, and fit diagnostics.

    ``drift_value`` is the per-step mean on the differenced scale, removed
    before the fit: the sample mean of the differenced series when drift is
    enabled, the sample mean of the series when d = 0, and zero otherwise.
    ``converged`` is False when the simplex stopped at its evaluation cap;
    a fit with no coefficient to estimate is converged.  The training tail
    starts the forecasts: ``tail_diffs`` and ``tail_residuals`` are aligned
    tails of the d-times-differenced, mean-removed series and its CSS
    residuals; ``level_tails[k]`` is the last value of the k-times-differenced
    series, k = 0..d-1, used to re-integrate forecasts.
    """

    order: ArimaOrder
    ar_coeffs: tuple[float, ...]
    ma_coeffs: tuple[float, ...]
    drift_value: float
    sigma2: float
    css: float
    aicc: float
    tail_diffs: tuple[float, ...]
    tail_residuals: tuple[float, ...]
    level_tails: tuple[float, ...]
    converged: bool = True


def _integrate(path: Sequence[float], anchors: Sequence[float]) -> tuple[float, ...]:
    """Undo differencing forward from known values.

    ``anchors[k]`` is the most recent value of the k-times-differenced
    series (k = 0 .. d-1, outermost first); ``path`` continues the
    d-times-differenced series.  Returns the continuation on the original
    scale.  With no anchors the path is returned unchanged.  The running
    sums add from left to right, as ``np.cumsum`` does, so they are its
    values bit for bit.
    """
    for anchor in reversed(anchors):
        path = [anchor + s for s in itertools.accumulate(path)]
    return tuple(path)


@cache
def _load_linear_filter():
    """scipy's C IIR filter, ``scipy.signal._sigtools._linear_filter``.

    The extension is found and loaded the way ``import`` would, but without
    running ``scipy/signal/__init__.py``: that imports all of scipy.signal,
    scipy.optimize and scipy.stats, about 1.3 s and 70 MB, for this one
    routine.  The module is registered under its own name, as ``import``
    does, so a later ``import scipy.signal`` uses this same module; that
    package then lacks a ``_sigtools`` attribute, but ``from . import
    _sigtools``, the form scipy itself uses, finds the module.  Called at
    the first fit, not at import, so ``import indexcast.cli`` loads no scipy.
    """
    name = "scipy.signal._sigtools"
    module = sys.modules.get(name)
    if module is None:
        import importlib.machinery
        import importlib.util
        scipy = importlib.util.find_spec("scipy")  # imports nothing
        spec = None if scipy is None else importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(d, "signal")
                   for d in scipy.submodule_search_locations])
        if spec is None:
            raise ImportError(f"ARIMA fits need scipy: {name} was not found")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module._linear_filter


def _css_residuals(w: np.ndarray, p: int, q: int):
    """CSS residuals e_t, t = p..len(w)-1, as a function of the p + q
    coefficients in one list, AR first.

    ``w`` is the mean-removed differenced series; pre-sample e are treated
    as 0.  Its AR lag views and the MA filter arrays are built here once,
    so each call only runs the recursion, reading the list in place.  With
    p = q = 0 the result is a view of ``w``, which callers only read; ``w``
    is never written.
    """
    # The MA recursion is lfilter([1.0], [1, ma], x), called as the C
    # routine lfilter ends in: for 1-D float64 x, len(a) > 1 and no zi,
    # lfilter only checks its arguments before this same call, and those
    # checks cost about as much as the filter itself.  TestCssResiduals
    # pins the two bit for bit (scipy 1.17.1).  The denominator is written
    # one item at a time, which costs less than a slice assignment.
    linear_filter = _load_linear_filter()

    n = len(w)
    head = w[p:]
    lags = [w[p - i:n - i] for i in range(1, p + 1)]
    numerator = np.ones(1)
    denominator = np.ones(q + 1)
    ma_slots = list(enumerate(range(p, p + q), 1))

    def residuals(coeffs) -> np.ndarray:
        x = head
        for c, lag in zip(coeffs, lags):
            x = x - c * lag
        if q:
            for k, i in ma_slots:
                denominator[k] = coeffs[i]
            return linear_filter(numerator, denominator, x, -1)
        return x

    return residuals


def fit_arima(series: MonthlyTimeSeries, order: ArimaOrder) -> ArimaModel:
    """Estimate coefficients for a fixed order by CSS minimization.

    The d = 0 mean, or the drift, is the sample mean of the differenced
    series (of the series itself when d = 0), removed before the fit.  The
    p + q coefficients then minimize CSS by ``_simplex.minimize`` from the
    origin; ``bounds`` keep each in |coef| <= COEF_BOUND, and the budget is
    ``_EVALS_PER_DIM`` evaluations per coefficient; the model records
    whether the simplex converged within it.  With no coefficient to
    estimate the optimizer is not called and the fit is converged.
    """
    n = len(series)
    p, q = order.p, order.q
    if n - order.d < 10 + p + q:
        raise SeriesTooShortError(
            f"need at least {10 + p + q + order.d} months for "
            f"order ({p},{order.d},{q}), got {n}")
    diffed = np.asarray(series.values, dtype=float)
    level_tails = []
    has_mean = order.d == 0 or order.drift
    x = [0.0] * (p + q)
    converged = True
    # arrays warn where floats overflow quietly; an overflowing difference or
    # sum of squares gives a non-finite AICc, which select_order rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(order.d):
            level_tails.append(float(diffed[-1]))
            diffed = np.diff(diffed)
        mu = float(diffed.mean()) if has_mean else 0.0
        w = diffed - mu
        residuals = _css_residuals(w, p, q)

        # e.dot(e) and e @ e both end in BLAS ddot; .dot skips the matmul
        # ufunc's dispatch, and TestCssResiduals pins their equal bits
        def objective(x):
            e = residuals(x)
            return float(e.dot(e))

        if p + q:
            result = minimize(objective, x,
                              bounds=(-COEF_BOUND, COEF_BOUND),
                              xatol=1e-4, fatol=1e-9 * objective(x),
                              maxfev=_EVALS_PER_DIM * (p + q))
            x, converged = result.x, result.success
        resid = residuals(x)
        css = float(resid.dot(resid))
    # sigma2 averages the n - d - p residuals CSS has; the likelihood and
    # the small-sample correction use the common n - d sample, so that
    # candidates of every p are scored on the same observations
    n_used = len(diffed)
    sigma2 = css / (n_used - p)
    k = p + q + (1 if has_mean else 0) + 1
    # the length check above leaves n_used - k - 1 >= 7
    aicc = (n_used * math.log(max(sigma2, 1e-300)) + 2 * k
            + 2 * k * (k + 1) / (n_used - k - 1))

    # the length check leaves len(resid) = n - d - p >= 10 + q >= tail_len
    tail_len = max(p, q, 1)
    return ArimaModel(order=order,
                      ar_coeffs=tuple(float(v) for v in x[:p]),
                      ma_coeffs=tuple(float(v) for v in x[p:]),
                      drift_value=mu,
                      sigma2=sigma2,
                      css=css,
                      aicc=aicc,
                      tail_diffs=tuple(float(v) for v in w[-tail_len:]),
                      tail_residuals=tuple(float(v) for v in resid[-tail_len:]),
                      level_tails=tuple(level_tails),
                      converged=converged)


def _stationary_enough(w: np.ndarray) -> bool:
    """Lag-1 autocorrelation below 0.9 and no variance payoff from one more
    difference."""
    if len(w) < 2:
        return True
    centered = w - w.mean()
    denom = float(centered @ centered)
    acf1 = 0.0 if denom == 0.0 else float(centered[1:] @ centered[:-1]) / denom
    return acf1 < _ACF1_STATIONARY and np.var(np.diff(w)) >= np.var(w)


def choose_difference_order(series: MonthlyTimeSeries) -> int:
    """Smallest d in 0..1 whose differenced series looks stationary, else 2."""
    w = np.asarray(series.values, dtype=float)
    # arrays warn where floats overflow quietly; the fits then score the
    # overflowing series' sums of squares as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(MAX_D):
            if _stationary_enough(w):
                return d
            w = np.diff(w)
    return MAX_D


def _roots_outside_unit_circle(coeffs: Sequence[float]) -> bool:
    """True when 1 + c_1 z + ... + c_k z^k has every root with |z| > 1."""
    if len(coeffs) <= 1:  # no root, or the one root -1/c_1
        return all(abs(c) < 1.0 for c in coeffs)
    poly = np.concatenate((np.asarray(coeffs, dtype=float)[::-1], [1.0]))
    return bool(np.all(np.abs(np.roots(poly)) > 1.0))


def select_order(series: MonthlyTimeSeries) -> ArimaModel:
    """Select p, q and drift by the stepwise search of Hyndman & Khandakar.

    d comes from the stationarity heuristic.  The search (*J. Stat. Softw.*
    27(3), 2008; the default of R's ``auto.arima``) starts from the best of
    (2,d,2), (0,d,0), (1,d,0) and (0,d,1), with drift when d = 1, and, when
    d = 1, (0,d,0) without drift.  From the best model so far it tries p-1,
    p+1, q-1, q+1, the four joint moves of p and q by one, then the drift
    toggle (d = 1 only), keeping p and q in 0..5, and moves to the first
    candidate with a lower key; it stops when no neighbour is lower.  The
    key is (AICc, p+q, p, q, drift), AICc compared over the common n - d
    differenced sample, so ties break toward smaller p+q, then smaller p.
    A fit whose simplex stopped at its evaluation cap, whose AICc is not
    finite (the sums of squares overflow), or that is not stationary or not
    invertible (an AR or MA root with |root| <= 1), scores AICc +inf: its
    coefficients are not a minimum, or its CSS residuals are not the
    innovations.  (0,d,0) fits no coefficient and is always converged, so
    only overflow leaves no usable fit.  Each (p, q, drift) is fitted at
    most once.  The winner is returned as fitted, equal to
    ``fit_arima(series, winner.order)``.
    """
    if len(series) < 24:
        raise SeriesTooShortError(
            f"order selection needs at least 24 months, got {len(series)}")
    d = choose_difference_order(series)
    fits = {}

    def scored(p, q, drift):
        if (p, q, drift) not in fits:
            # n - d >= 22 >= 10 + p + q, so every order in range can be fitted
            model = fit_arima(series, ArimaOrder(p, d, q, drift))
            # AR polynomial 1 - sum phi_k z^k, MA 1 + sum theta_k z^k
            usable = (model.converged and math.isfinite(model.aicc)
                      and _roots_outside_unit_circle(
                          [-c for c in model.ar_coeffs])
                      and _roots_outside_unit_circle(model.ma_coeffs))
            key = (model.aicc if usable else math.inf, p + q, p, q, drift)
            fits[p, q, drift] = key, model
        return fits[p, q, drift]

    drift = d == 1
    # (0, 0, False) is the fifth start when d = 1 and a cached repeat else
    best = min([(2, 2, drift), (0, 0, drift), (1, 0, drift), (0, 1, drift),
                (0, 0, False)], key=lambda c: scored(*c)[0])
    while True:
        p, q, drift = best
        moves = [(p + dp, q + dq, drift) for dp, dq in _STEPS
                 if 0 <= p + dp <= MAX_P and 0 <= q + dq <= MAX_Q]
        if d == 1:
            moves.append((p, q, not drift))
        step = next((c for c in moves if scored(*c)[0] < scored(*best)[0]),
                    None)
        if step is None:
            break
        best = step
    key, model = scored(*best)
    if key[0] == math.inf:
        raise SelectionFailedError("no candidate order produced a usable fit")
    return model


def forecast_arima(model: ArimaModel, horizon: int) -> tuple[float, ...]:
    """Forecast `horizon` months ahead on the original scale.

    The ARMA recursion runs on the differenced scale with future
    innovations zero (known residuals feed the first q steps), the drift or
    mean is added back per step, and the path is integrated d times from
    the training tail.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    p, q = model.order.p, model.order.q
    z = list(model.tail_diffs)
    resid = list(model.tail_residuals)
    diff_fc = []
    for _ in range(horizon):
        acc = 0.0
        for i in range(1, p + 1):
            acc += model.ar_coeffs[i - 1] * z[-i]
        for j in range(1, q + 1):
            acc += model.ma_coeffs[j - 1] * resid[-j]
        z.append(acc)
        resid.append(0.0)
        diff_fc.append(acc + model.drift_value)
    return _integrate(diff_fc, model.level_tails)
