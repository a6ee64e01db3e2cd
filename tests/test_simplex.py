"""The in-repo Nelder-Mead simplex against scipy's own as an oracle.

``indexcast._simplex.minimize`` must return what
``scipy.optimize.minimize(method="Nelder-Mead")`` returns, bit for bit: the
same x, fun, nfev, nit and success.  It is checked on every objective the
library minimizes on the fixtures, and on the corners of the algorithm:
bounds, ties, non-finite values and a budget that runs out mid-step.
"""

import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcast import (ArimaOrder, MonthlyTimeSeries, MonthStamp, _simplex,
                       arima, fit_arima, fit_holt_winters, holtwinters,
                       slice_window)

START, TRAIN_END = MonthStamp(2010, 1), MonthStamp(2014, 12)


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def same_as_scipy(fun, x0, bounds, options):
    """Run both simplexes on ``fun``; return ours once it matches scipy's.

    Both see each trial point as a list of floats, as the library's
    objectives do.  ``bounds`` is our one (low, high) pair; scipy gets it
    once per coordinate.
    """
    theirs = scipy.optimize.minimize(lambda x: fun(x.tolist()), x0,
                                     method="Nelder-Mead",
                                     bounds=[bounds] * len(x0),
                                     options=options)
    ours = _simplex.minimize(fun, x0, bounds=bounds, **options)
    assert _bits(ours.x) == _bits(theirs.x)
    assert _bits(ours.fun) == _bits(theirs.fun)
    assert (ours.nfev, ours.nit, ours.success) == (
        theirs.nfev, theirs.nit, theirs.success)
    return ours


@pytest.fixture
def library_runs(monkeypatch):
    """Check every optimizer call of the fits against scipy; list the runs."""
    runs = []

    def checked(fun, x0, bounds, **options):
        runs.append((bounds, same_as_scipy(fun, x0, bounds=bounds,
                                           options=options)))
        return runs[-1][1]

    monkeypatch.setattr(arima, "minimize", checked)
    monkeypatch.setattr(holtwinters, "minimize", checked)
    return runs


class TestLibraryObjectives:
    @pytest.mark.parametrize("sector", ["CD", "SC"])
    def test_every_differenced_css_fit(self, sector, cd_series, sc_series,
                                       library_runs):
        series = {"CD": cd_series, "SC": sc_series}[sector]
        train = slice_window(series, START, TRAIN_END)
        for drift in (False, True):
            for p in range(arima.MAX_P + 1):
                for q in range(arima.MAX_Q + 1):
                    fit_arima(train, ArimaOrder(p, 1, q, drift))
        assert len(library_runs) == 70  # (0,1,0) has nothing to estimate
        stopped = sum(not result.success for _, result in library_runs)
        assert 0 < stopped < 70  # some fits stop at the evaluation cap

    @pytest.mark.parametrize("p, q", [(0, 0), (1, 1), (3, 2)])
    def test_mean_removed_fit(self, p, q, cd_series, library_runs):
        # the d = 0 mean is removed before the fit, so the simplex sees only
        # the bounded coefficients, and (0,0,0) has nothing to estimate
        train = slice_window(cd_series, START, TRAIN_END)
        diffs = MonthlyTimeSeries(train.start, np.diff(train.values).tolist())
        fit_arima(diffs, ArimaOrder(p, 0, q))
        box = (-arima.COEF_BOUND, arima.COEF_BOUND)
        assert [bounds for bounds, _ in library_runs] == ([box] if p + q else [])

    def test_holt_winters_refine(self, cd_series, sc_series, library_runs):
        fit_holt_winters(cd_series)
        fit_holt_winters(sc_series)
        assert len(library_runs) == 2


_FREE = (-math.inf, math.inf)
# the pairs the fits use and no bound; one pair bounds every coordinate
_PAIRS = [(-0.99, 0.99), (0.0, 1.0), _FREE]


def _bowl(x):
    """A convex bowl with its minimum outside the unit box."""
    return ((x[0] - 2.0) ** 2 + 3.0 * (x[1] + 0.3) ** 2
            + 0.5 * (x[-1] - 0.5) ** 2)


def _plateau(x):
    """Flat wherever |x_i| <= 0.5, a staircase outside: vertex values tie."""
    return sum(math.floor(4.0 * max(abs(v) - 0.5, 0.0)) for v in x)


class TestEdgeCases:
    def test_start_on_the_upper_bound_reflects_inward(self):
        same_as_scipy(_bowl, [1.0, 0.5, 1.0], bounds=(0.0, 1.0),
                      options=dict(xatol=1e-8, fatol=1e-12, maxfev=600))

    @pytest.mark.parametrize("x0", [[-0.0], [-0.0, 0.5]])
    def test_negative_zero_start_clips_to_the_zero_lower_bound(self, x0):
        # from two coordinates on np.clip turns -0.0 at a +0.0 lower bound
        # into +0.0, with one it keeps -0.0; an objective that reads the
        # sign tells the two apart
        def fun(x):
            return math.copysign(1.0, x[0]) + (x[-1] - 0.2) ** 2

        for maxfev in (3, 400):
            same_as_scipy(fun, x0, bounds=(0.0, 1.0),
                          options=dict(maxfev=maxfev))

    @pytest.mark.parametrize("x0", [[0.2, -0.1], [0.3, 0.6, 0.9, 1.2],
                                    [1.5] * 5])
    def test_tied_vertex_values(self, x0):
        # from four dimensions on, numpy's argsort may order equal values
        # other than a stable sort does, and the centroid sums the rows in
        # that order
        same_as_scipy(_plateau, x0, bounds=_FREE,
                      options=dict(xatol=1e-6, fatol=1e-9,
                                   maxfev=200 * len(x0)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values(self, bad):
        def fun(x):
            return bad if x[0] > 0.5 else (x[0] - 0.2) ** 2 + x[-1] ** 2

        # the start simplex straddles the edge, so the worst vertex is bad:
        # a NaN there fails the convergence test however wide xatol is and
        # makes fun NaN while that vertex remains
        for options in (dict(xatol=1e-6, fatol=1e-9, maxfev=400),
                        dict(xatol=0.1, fatol=1e-2, maxfev=400),
                        dict(maxfev=4)):
            for bounds in _PAIRS:
                same_as_scipy(fun, [0.49, 0.0], bounds=bounds,
                              options=options)
                same_as_scipy(fun, [0.49], bounds=bounds, options=options)
        for bounds in _PAIRS:
            same_as_scipy(lambda x: bad, [0.5, 0.5], bounds=bounds,
                          options=dict(maxfev=400))

    @pytest.mark.filterwarnings("ignore:Initial guess is not within")
    @pytest.mark.parametrize("fun, x0", [
        (lambda x: (x[0] - 50.0) ** 2 + (x[1] - 50.0) ** 2, [0.0, 0.0]),
        (_plateau, [0.2, -0.1, 0.3]),
    ])
    def test_budget_spent_mid_step(self, fun, x0):
        # the first objective expands for many iterations (two calls each)
        # and the plateau shrinks every iteration (two calls, then one per
        # vertex), so some cap in this sweep falls inside an expansion and
        # inside a shrink, under each pair
        for bounds in _PAIRS:
            for maxfev in range(1, 41):
                result = same_as_scipy(fun, x0, bounds=bounds,
                                       options=dict(maxfev=maxfev))
                assert result.nfev == maxfev and not result.success


def _floored_bowl(centre, ripple, step, nan_above, inf_below):
    """A bowl with a ``ripple`` (local minima, so the simplex shrinks) whose
    values are floored to multiples of ``step``, so vertex values tie often;
    NaN above ``nan_above`` and inf below ``inf_below`` in the first
    coordinate, and -0.0 where it is zero and the last is below 0.
    """
    def fun(x):
        if x[0] > nan_above:
            return math.nan
        if x[0] < inf_below:
            return math.inf
        value = sum((v - c) ** 2 + ripple * (1.0 - math.cos(20.0 * v))
                    for v, c in zip(x, centre))
        if step:
            value = step * math.floor(value / step)
        return -0.0 if value == 0.0 and x[-1] < 0.0 else value
    return fun


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                            "ignore:Initial guess is not within")
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_same_as_scipy_on_ties_and_non_finite_values(data):
    # ties, +-0.0 pairs and NaN send the vertex order to numpy, distinct
    # values keep it in Python, by a full sort or by placing the one new
    # vertex, and small budgets stop in the middle of a step or a shrink
    n = data.draw(st.integers(1, 6), label="n")

    def each(values):
        return st.lists(values, min_size=n, max_size=n)

    bounds = data.draw(st.sampled_from(_PAIRS), label="bounds")
    x0 = data.draw(each(st.sampled_from([-0.0, 0.0, 0.99])
                        | st.floats(-1.5, 1.5)), label="x0")
    fun = _floored_bowl(
        data.draw(each(st.floats(-2.0, 2.0)), label="centre"),
        data.draw(st.sampled_from([0.0, 0.1]), label="ripple"),
        data.draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]), label="step"),
        data.draw(st.just(math.inf) | st.floats(0.0, 2.0), label="nan_above"),
        data.draw(st.just(-math.inf) | st.floats(-2.0, 0.0), label="inf_below"))
    maxfev = data.draw(st.sampled_from([3, 50, 200 * n]), label="maxfev")
    same_as_scipy(fun, x0, bounds, options=dict(maxfev=maxfev))


def test_unknown_option_raises():
    # a misspelt budget must not leave the fit on some default cap
    with pytest.raises(TypeError):
        _simplex.minimize(_bowl, [0.5, 0.5], bounds=_FREE,
                          maxfev=100, maxfun=100)


def test_optimizer_result_keeps_the_tracer_contract(monkeypatch, cd_series):
    # bench/spans.py wraps minimize in both modules and reads nfev, success
    assert arima.minimize is _simplex.minimize
    assert holtwinters.minimize is _simplex.minimize
    results = []

    def recording(*args, **kwargs):
        results.append(_simplex.minimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(arima, "minimize", recording)
    monkeypatch.setattr(holtwinters, "minimize", recording)
    train = slice_window(cd_series, START, TRAIN_END)
    fit_arima(train, ArimaOrder(1, 1, 1))
    fit_holt_winters(train)
    assert len(results) == 2
    for result in results:
        assert isinstance(result.nfev, int) and isinstance(result.success, bool)
