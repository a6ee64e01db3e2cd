import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import DATA_DIR, fresh_python
from indexcast import _simplex, arima
from indexcast import (ArimaOrder, ComputationError, MonthStamp,
                       SelectionFailedError, SeriesTooShortError,
                       choose_difference_order, fit_arima, forecast_arima,
                       make_series, select_order, slice_window)
from indexcast.arima import COEF_BOUND, MAX_P, MAX_Q


class TestOrder:
    def test_validation(self):
        ArimaOrder(0, 1, 1, drift=True)
        with pytest.raises(ValueError):
            ArimaOrder(6, 1, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 1, 6)
        with pytest.raises(ValueError):
            ArimaOrder(0, 3, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 1, drift=True)


class TestIntegrate:
    def test_integration_round_trip(self):
        rng = np.random.default_rng(5)
        x = list(rng.normal(0, 10, 40))
        for d in (1, 2):
            diffed = np.diff(x, n=d)
            # anchors: most recent value of each differencing level at the
            # point the deltas begin
            anchors = [np.diff(x, n=k)[d - 1 - k] for k in range(d)]
            rebuilt = arima._integrate(diffed, anchors)
            assert np.allclose(rebuilt, x[d:], atol=1e-12)
        # bit for bit the numpy running sum it replaces, d = 0..2, over
        # magnitudes from 1e-6 to 1e12
        for d in (0, 1, 2):
            for scale in (1e-6, 1.0, 1e6, 1e12):
                deltas = list(rng.normal(0, scale, 30))
                anchors = list(rng.normal(0, 1e3 * scale, d))
                expected = np.asarray(deltas)
                for anchor in reversed(anchors):
                    expected = anchor + np.cumsum(expected)
                assert arima._integrate(deltas, anchors) == tuple(expected)


def _css(w, p, q, ar, ma):
    """The CSS sum the fit minimizes, on the mean-removed series w."""
    e = arima._css_residuals(np.asarray(w, dtype=float), p, q)([*ar, *ma])
    return float(e @ e)


class TestCssResiduals:
    def test_exact_ar1_recursion(self):
        z = [1.0]
        for _ in range(30):
            z.append(0.5 * z[-1])
        assert _css(z, 1, 0, [0.5], []) == pytest.approx(0.0, abs=1e-20)

    def test_white_noise_is_centered_sum_of_squares(self):
        rng = np.random.default_rng(1)
        z = rng.normal(3, 2, 40)
        expected = float(((z - z.mean()) ** 2).sum())
        assert _css(z - z.mean(), 0, 0, [], []) == pytest.approx(expected, rel=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 5, 50)
        assert _css(z, 1, 1, [0.3], [0.2]) == \
            pytest.approx(oracles.css(z, 1, 1, [0.3], [0.2], 0.0), rel=1e-9)
        for _ in range(20):
            p, q = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            ar = list(rng.uniform(-0.7, 0.7, p))
            ma = list(rng.uniform(-0.7, 0.7, q))
            mu = float(rng.normal())
            ours = _css(z - mu, p, q, ar, ma)
            assert ours == pytest.approx(oracles.css(z, p, q, ar, ma, mu),
                                         rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("order", [
        ArimaOrder(2, 0, 1), ArimaOrder(1, 1, 2), ArimaOrder(2, 1, 1, drift=True),
        ArimaOrder(0, 1, 0, drift=True), ArimaOrder(1, 2, 1),
    ], ids=["d0", "d1", "d1_drift", "d1_drift_no_coefficients", "d2"])
    def test_fit_css_matches_loop_oracle(self, sc_series, order):
        # the fit removes the mean (d = 0) or the drift, differences d
        # times and sums the squared residuals at its coefficients: the
        # oracle redoes all of it with loops from the raw series
        train = slice_window(sc_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_arima(train, order)
        diffed = list(train.values)
        for _ in range(order.d):
            diffed = [b - a for a, b in zip(diffed, diffed[1:])]
        mu = sum(diffed) / len(diffed) if order.d == 0 or order.drift else 0.0
        assert model.drift_value == pytest.approx(mu, rel=1e-12, abs=1e-12)
        want = oracles.css(diffed, order.p, order.q, list(model.ar_coeffs),
                           list(model.ma_coeffs), mu)
        assert model.css == pytest.approx(want, rel=1e-9)

    def test_residuals_match_lfilter_bit_for_bit(self, cd_series):
        # _css_residuals calls the C routine that lfilter ends in; the public
        # lfilter is the reference, on every order, on coefficients at the
        # box edges and signed zeros, and on sums that overflow
        from scipy.signal import _sigtools, lfilter
        assert hasattr(_sigtools, "_linear_filter"), \
            "scipy.signal._sigtools._linear_filter, which _css_residuals " \
            "calls, is gone"
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        cd = np.diff(train.values)
        rng = np.random.default_rng(15)
        seeded = rng.normal(0.0, 5.0, 48)
        huge = 1.7e308 * np.where(rng.random(48) < 0.5, -1.0, 1.0)
        specials = np.array([COEF_BOUND, -COEF_BOUND, 0.0, -0.0])
        for name, series in (("CD", cd - cd.mean()), ("seeded", seeded),
                             ("overflow", huge)):
            w = series.copy()
            for p in range(MAX_P + 1):
                for q in range(MAX_Q + 1):
                    residuals = arima._css_residuals(w, p, q)
                    draws = [[float(specials[i % 4]) for i in range(p + q)]]
                    for _ in range(4):
                        coefs = rng.uniform(-COEF_BOUND, COEF_BOUND, p + q)
                        edge = rng.random(p + q) < 0.4
                        coefs[edge] = rng.choice(specials, int(edge.sum()))
                        draws.append(coefs.tolist())
                    for coefs in draws:
                        ar, ma = coefs[:p], coefs[p:]
                        with np.errstate(all="ignore"):
                            got = residuals(coefs)
                            x = w[p:]
                            for i, a in enumerate(ar, 1):
                                x = x - a * w[p - i:len(w) - i]
                            want = lfilter([1.0], [1.0, *ma], x)
                        assert got.dtype == want.dtype, (name, p, q)
                        assert got.tobytes() == want.tobytes(), \
                            ("_linear_filter differs from lfilter", name, ar, ma)
            # the closure filters views of w and must never write to it
            assert w.tobytes() == series.tobytes(), name
        with np.errstate(all="ignore"):
            e = arima._css_residuals(huge, 2, 2)([COEF_BOUND, COEF_BOUND,
                                                  -COEF_BOUND, COEF_BOUND])
        assert np.isinf(e).any() and np.isnan(e).any()

    def test_dot_is_matmul_bit_for_bit(self, cd_series):
        # the fit sums squares as e.dot(e), which skips the matmul ufunc's
        # dispatch; both must reach the same BLAS kernel, or a numpy upgrade
        # could move every CSS value by rounding
        rng = np.random.default_rng(40)
        for n in range(1, 301):
            for scale in (1e-3, 1.0, 1e4):
                e = rng.normal(0.0, scale, n)
                assert e.dot(e).tobytes() == (e @ e).tobytes(), (n, scale)
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        cd = np.diff(train.values)
        w = cd - cd.mean()
        for p in range(MAX_P + 1):
            for q in range(MAX_Q + 1):
                residuals = arima._css_residuals(w, p, q)
                draws = [[0.0] * (p + q)] + [
                    rng.uniform(-COEF_BOUND, COEF_BOUND, p + q).tolist()
                    for _ in range(4)]
                for coefs in draws:
                    e = residuals(coefs)
                    assert e.dot(e).tobytes() == (e @ e).tobytes(), (p, q, coefs)


# fits the CD training window in a fresh interpreter, so that no earlier
# test has loaded scipy or filled the loader's cache
_FIT_CD = """
from indexcast import MonthStamp, read_values_file, select_order, slice_window
cd = read_values_file({cd!r}, MonthStamp(2010, 1))
select_order(slice_window(cd, MonthStamp(2010, 1), MonthStamp(2014, 12)))
""".format(cd=str(DATA_DIR / "consumer_durables_monthly.txt"))


class TestFilterLoading:
    def test_selection_imports_none_of_scipy_signal(self):
        script = _FIT_CD + """
import sys
loaded = [m for m in ("scipy.signal", "scipy.optimize", "scipy.stats")
          if m in sys.modules]
assert "scipy.signal._sigtools" in sys.modules
sys.exit(f"imported {loaded}" if loaded else 0)
"""
        done = fresh_python(script)
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize("fit_first", [True, False],
                             ids=["fit_first", "scipy_signal_first"])
    def test_loader_and_scipy_signal_share_one_filter(self, fit_first):
        # if scipy moves _linear_filter or _sigtools stops loading on its
        # own, this fails here rather than as a slower or different fit
        imports = """
import scipy.signal
from scipy.signal import _sigtools
"""
        script = (_FIT_CD + imports if fit_first else imports + _FIT_CD) + """
from indexcast import arima
assert arima._load_linear_filter() is _sigtools._linear_filter
assert scipy.signal.lfilter([1.0], [1.0, 0.5], [1.0, 2.0]).tolist() == [1.0, 1.5]
"""
        done = fresh_python(script)
        assert (done.returncode, done.stderr) == (0, "")

    @pytest.mark.parametrize("finder", ["importlib.util",
                                        "importlib.machinery.PathFinder"])
    def test_missing_scipy_is_an_import_error(self, finder):
        # find_spec returning None is how a missing scipy, or a scipy
        # without the extension, shows
        script = f"""
import importlib.machinery, importlib.util
real = {finder}.find_spec
{finder}.find_spec = lambda name, *args: (
    None if name.startswith("scipy") else real(name, *args))
""" + _FIT_CD
        done = fresh_python(script)
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1] == (
            "ImportError: ARIMA fits need scipy: scipy.signal._sigtools was not found")


class TestFit:
    def test_deterministic_ramp_with_drift(self):
        s = make_series("2010-01", [5.0 * t for t in range(30)])
        model = fit_arima(s, ArimaOrder(0, 1, 0, drift=True))
        assert model.drift_value == pytest.approx(5.0)
        assert model.css == pytest.approx(0.0, abs=1e-18)

    def test_recovers_ar1_on_differences(self):
        rng = np.random.default_rng(99)
        z = [0.0]
        for _ in range(499):
            z.append(0.6 * z[-1] + rng.normal())
        y = np.cumsum([100.0] + z)
        model = fit_arima(make_series("1970-01", y), ArimaOrder(1, 1, 0))
        assert model.ar_coeffs[0] == pytest.approx(0.6, abs=0.1)

    def test_constant_series(self):
        model = fit_arima(make_series("2010-01", [7.0] * 30), ArimaOrder(0, 1, 1))
        assert abs(model.ma_coeffs[0]) <= 1e-6
        assert model.css == pytest.approx(0.0, abs=1e-18)

    def test_nested_refit_cannot_be_worse(self, cd_series):
        # css of the (p+1, q) model at the padded optimum of the (p, q)
        # model drops one squared residual, so the refit minimum is no worse
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        diffed = np.diff(train.values)
        small = fit_arima(train, ArimaOrder(1, 1, 0))
        padded = _css(diffed, 2, 0, list(small.ar_coeffs) + [0.0], [])
        assert padded <= small.css + 1e-9
        big = fit_arima(train, ArimaOrder(2, 1, 0))
        assert big.css <= padded + 1e-6 * padded

    def test_sigma2_and_aicc_formulas(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_arima(train, ArimaOrder(0, 1, 1, drift=True))
        m = len(train) - 1  # one difference, q = 0 pre-sample residuals
        assert model.sigma2 == pytest.approx(model.css / (m - model.order.p))
        k = 0 + 1 + 1 + 1
        expected = (m - model.order.p) * math.log(model.sigma2) + 2 * k \
            + 2 * k * (k + 1) / ((m - model.order.p) - k - 1)
        assert model.aicc == pytest.approx(expected, rel=1e-12)

    def test_aicc_uses_common_sample_for_ar_lags(self, cd_series):
        # with p > 0, sigma2 averages the n - d - p CSS residuals but the
        # likelihood and the small-sample correction use all n - d
        # differenced observations, the same sample every candidate shares
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_arima(train, ArimaOrder(2, 1, 1, drift=True))
        n_used = len(train) - 1
        assert model.sigma2 == pytest.approx(model.css / (n_used - 2), rel=1e-12)
        k = 2 + 1 + 1 + 1
        expected = n_used * math.log(model.sigma2) + 2 * k \
            + 2 * k * (k + 1) / (n_used - k - 1)
        assert model.aicc == pytest.approx(expected, rel=1e-12)

    def test_records_whether_the_simplex_converged(self, sc_series,
                                                   monkeypatch):
        train = slice_window(sc_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        assert fit_arima(train, ArimaOrder(2, 1, 2)).converged
        # no coefficient to estimate: no optimizer run, converged
        assert fit_arima(train, ArimaOrder(0, 1, 0, drift=True)).converged
        monkeypatch.setattr(arima, "_EVALS_PER_DIM", 2)
        assert not fit_arima(train, ArimaOrder(2, 1, 2)).converged

    def test_determinism(self, sc_series):
        train = slice_window(sc_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        a = fit_arima(train, ArimaOrder(2, 1, 2))
        b = fit_arima(train, ArimaOrder(2, 1, 2))
        assert a == b

    def test_coefficients_stay_in_the_box_whatever_the_units(self):
        # the box is the optimizer's bounds, not a penalty in squared data
        # units, so a power-of-two rescaling leaves every fit unchanged
        rng = np.random.default_rng(1)
        values = 1000.0 + rng.normal(0.0, 10.0, 60)
        small = make_series("2010-01", values)
        large = make_series("2010-01", values * 2.0 ** 20)
        for p in range(MAX_P + 1):
            for q in range(MAX_Q + 1):
                a, b = (fit_arima(s, ArimaOrder(p, 1, q)) for s in (small, large))
                coef_a = np.array(a.ar_coeffs + a.ma_coeffs)
                coef_b = np.array(b.ar_coeffs + b.ma_coeffs)
                assert np.allclose(coef_a, coef_b, rtol=0.0, atol=1e-9), (p, q)
                assert np.all(np.abs([coef_a, coef_b]) <= COEF_BOUND), (p, q)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(30, 72),
           d=st.integers(0, 2), p=st.integers(0, MAX_P), q=st.integers(0, MAX_Q),
           drift=st.booleans(), k=st.integers(-60, 60))
    # the derandomized draws hold few d = 0 fits with a large k; pin one
    @example(seed=0, n=60, d=0, p=1, q=1, drift=False, k=-20)
    def test_power_of_two_scaling_is_exact(self, seed, n, d, p, q, drift, k):
        # scaling by 2**k is exact in floating point, and the mean or drift
        # is removed before the fit, so every estimated parameter is a
        # unitless coefficient: the fit must not change, the mean or drift
        # must scale by exactly 2**k and the sum of squares by 4**k
        rng = np.random.default_rng(seed)
        y = rng.uniform(1.0, 1e6) * np.exp(rng.normal(0.0, 0.05, n).cumsum())
        order = ArimaOrder(p, d, q, drift and d >= 1)
        base = fit_arima(make_series("2010-01", y), order)
        scaled = fit_arima(make_series("2010-01", y * 2.0 ** k), order)
        assert scaled.ar_coeffs == base.ar_coeffs
        assert scaled.ma_coeffs == base.ma_coeffs
        assert scaled.drift_value == base.drift_value * 2.0 ** k
        assert scaled.css == base.css * 4.0 ** k

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            fit_arima(make_series("2010-01", [1.0] * 12), ArimaOrder(2, 1, 2))


class TestChooseDifferenceOrder:
    def test_trending_fixture_needs_one_difference(self, cd_series):
        assert choose_difference_order(cd_series) == 1

    def test_deterministic_ramp(self):
        s = make_series("2010-01", [100.0 + 5.0 * t for t in range(30)])
        assert choose_difference_order(s) >= 1

    def test_white_noise_is_already_stationary(self):
        rng = np.random.default_rng(17)
        s = make_series("2010-01", rng.normal(0, 1, 60))
        assert choose_difference_order(s) == 0

    def test_one_month_needs_no_difference(self):
        # one value has no lag-1 pair and no difference to compare with
        assert choose_difference_order(make_series("2010-01", [100.0])) == 0


def _roots_outside_unit_circle(coeffs):
    """Every root of 1 + c_1 z + ... + c_k z^k has |z| > 1."""
    return bool(np.all(np.abs(np.roots(list(coeffs)[::-1] + [1.0])) > 1.0))


@pytest.mark.parametrize("coeffs", [
    [], *[[c] for c in (0.0, -0.0, 0.99, -0.99, 1.0, -1.0, 1.5, -1.5)]])
def test_short_polynomials_answer_as_np_roots(coeffs):
    # zero or one coefficient is decided without np.roots
    assert arima._roots_outside_unit_circle(coeffs) is _roots_outside_unit_circle(coeffs)


def _search_key(model):
    """select_order's ranking key, an unusable fit scoring AICc +inf."""
    o = model.order
    usable = (model.converged and math.isfinite(model.aicc)
              and _roots_outside_unit_circle([-c for c in model.ar_coeffs])
              and _roots_outside_unit_circle(model.ma_coeffs))
    return (model.aicc if usable else math.inf, o.p + o.q, o.p, o.q, o.drift)


class _ArgsortSpy:
    """numpy as ``_simplex`` sees it, counting its ``argsort`` calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def argsort(self, a):
        self.calls += 1
        return np.argsort(a)


class TestSelectOrder:
    def test_stepwise_search(self, window_selections, monkeypatch):
        fitted, runs, numpy = [], [], _ArgsortSpy()
        fit, run = arima.fit_arima, arima.minimize

        def recording_fit(series, order):
            fitted.append(fit(series, order))
            return fitted[-1]

        def recording_minimize(*args, **kwargs):
            runs.append(run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(arima, "fit_arima", recording_fit)
        monkeypatch.setattr(arima, "minimize", recording_minimize)
        monkeypatch.setattr(_simplex, "np", numpy)
        work_per_sector = {}
        for sector, (train, selected) in window_selections.items():
            fitted.clear()
            runs.clear()
            numpy.calls = 0
            assert select_order(train) == selected
            keys = {(m.order.p, m.order.q, m.order.drift): _search_key(m)
                    for m in fitted}
            assert len(keys) == len(fitted), f"{sector}: an order fitted twice"
            # the search stops only where every neighbour has been tried and
            # none is lower: p and q each moved by one within 0..5, and the
            # drift toggle (both fixtures difference once)
            o = selected.order
            p, q, drift = o.p, o.q, o.drift
            neighbours = [(p + dp, q + dq, drift)
                          for dp in (-1, 0, 1) for dq in (-1, 0, 1)
                          if (dp, dq) != (0, 0)
                          and 0 <= p + dp <= MAX_P and 0 <= q + dq <= MAX_Q]
            for neighbour in neighbours + [(p, q, not drift)]:
                assert keys[p, q, drift] < keys[neighbour], (sector, neighbour)
            work_per_sector[sector] = (len(fitted), len(runs),
                                       sum(r.nfev for r in runs), numpy.calls)
        # fits, simplex runs (the (0,d,0) fits run none), the CSS
        # evaluations those runs report, and the simplex's np.argsort calls:
        # exact counts of the search's work.  The simplex orders distinct
        # vertex values without numpy, and these fits never tie.
        assert work_per_sector == {"CD": (9, 7, 1128, 0),
                                   "SC": (13, 11, 1595, 0)}

    def test_ramp_selects_difference_and_fits_exactly(self):
        s = make_series("2010-01", [100.0 + 5.0 * t for t in range(30)])
        model = select_order(s)
        assert model.order.d >= 1
        assert model.css == pytest.approx(0.0, abs=1e-12)

    def test_fixtures_select_one_difference(self, window_selections):
        for _, model in window_selections.values():
            assert model.order.d == 1

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            select_order(make_series("2010-01", [1.0] * 20))

    def test_overflow_is_a_computation_error(self):
        # every candidate's sum of squares overflows, so none has a finite AICc
        rng = np.random.default_rng(3)
        series = make_series("2010-01", 1e200 * (1.0 + 0.01 * rng.normal(size=60)))
        with np.errstate(all="ignore"), pytest.raises(ComputationError):
            select_order(series)

    @pytest.mark.parametrize("values", [
        1e200 * (1.0 + 0.01 * np.random.default_rng(3).normal(size=60)),
        [1.7e308 if t % 2 else -1.7e308 for t in range(36)],  # diffs overflow
    ], ids=["squares", "differences"])
    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_without_a_warning(self, values):
        # no errstate here: the fits and the differencing choice must keep
        # their overflowing array arithmetic quiet, as plain floats are
        with pytest.raises(SelectionFailedError):
            select_order(make_series("2010-01", values))

    def test_selection_does_not_depend_on_units(self, window_selections):
        # a*y + b selects the same order, and its forecasts are a*f + b up
        # to rounding, for scales that are not powers of two and for shifts
        assert window_selections["CD"][1].order == ArimaOrder(0, 1, 1, drift=True)
        for sector, (train, model) in window_selections.items():
            y = np.asarray(train.values)
            forecasts = np.asarray(forecast_arima(model, 12))
            tolerance = 1e-9 * np.max(np.abs(y))
            for a, b in ((1e-3, 0.0), (1e3, 0.0), (3.0, 0.0), (0.37, 0.0),
                         (1.7, 250.0), (10.1, -500.0)):
                chosen = select_order(make_series("2010-01", a * y + b))
                assert chosen.order == model.order, (sector, a, b)
                mapped = np.asarray(forecast_arima(chosen, 12))
                gap = np.max(np.abs((mapped - b) / a - forecasts))
                assert gap <= tolerance, (sector, a, b, gap)

    def test_unconverged_fit_cannot_win(self, window_selections, monkeypatch):
        # CD's winner, refitted with a simplex that reports no convergence,
        # scores +inf, and the search settles on another order
        train, model = window_selections["CD"]
        winner = model.order
        fitting = []
        fit, run = arima.fit_arima, arima.minimize

        def recording_fit(series, order):
            fitting.append(order)
            return fit(series, order)

        def reporting_minimize(*args, **kwargs):
            result = run(*args, **kwargs)
            if fitting[-1] == winner:
                result.success = False
            return result

        monkeypatch.setattr(arima, "fit_arima", recording_fit)
        monkeypatch.setattr(arima, "minimize", reporting_minimize)
        chosen = select_order(train)
        assert winner in fitting
        assert chosen.order != winner
        assert chosen.converged

    def test_power_of_two_scaling_keeps_the_selection(self, window_selections):
        # every candidate fit is scale-free (TestFit), so a rescaled window
        # selects the same order with the same coefficients
        for train, model in window_selections.values():
            rescaled = make_series("2010-01", np.asarray(train.values) * 2.0 ** -30)
            chosen = select_order(rescaled)
            assert chosen.order == model.order
            assert chosen.ar_coeffs + chosen.ma_coeffs == (
                model.ar_coeffs + model.ma_coeffs)

    def test_returns_the_winner_as_fitted(self, window_selections):
        for train, model in window_selections.values():
            assert model == fit_arima(train, model.order)

    def test_selected_fits_are_stationary_and_invertible(
            self, window_selections):
        for _, model in window_selections.values():
            assert _roots_outside_unit_circle([-c for c in model.ar_coeffs])
            assert _roots_outside_unit_circle(model.ma_coeffs)


class TestForecast:
    def test_random_walk_flat(self):
        s = make_series("2010-01", [11014.0 - 7 * t for t in range(29)] + [11014.0])
        model = fit_arima(s, ArimaOrder(0, 1, 0))
        assert forecast_arima(model, 12) == pytest.approx((11014.0,) * 12)

    def test_random_walk_with_drift(self):
        s = make_series("2010-01", [100.0 - 5.0 * (29 - t) for t in range(30)])
        model = fit_arima(s, ArimaOrder(0, 1, 0, drift=True))
        assert forecast_arima(model, 3) == pytest.approx((105.0, 110.0, 115.0))

    def test_ar1_hand_recursion(self):
        # phi=0.5, last difference 8, last level 1000: differences forecast
        # (4, 2, 1, ...), levels (1004, 1006, 1007, ...)
        from indexcast import ArimaModel
        model = ArimaModel(ArimaOrder(1, 1, 0), (0.5,), (), 0.0, 1.0, 1.0, 0.0,
                           tail_diffs=(8.0,), tail_residuals=(0.0,),
                           level_tails=(1000.0,))
        fc = forecast_arima(model, 3)
        assert fc == pytest.approx((1004.0, 1006.0, 1007.0))
        sim = oracles.arma_forecast_on_diffs([8.0], [0.0], 1, 0, [0.5], [], 3)
        assert np.allclose(np.cumsum(sim) + 1000.0, fc)

    def test_geometric_convergence_to_drift_line(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        for order in (ArimaOrder(0, 1, 1, drift=True), ArimaOrder(1, 1, 0),
                      ArimaOrder(1, 1, 0, drift=True)):
            model = fit_arima(train, order)
            fc = forecast_arima(model, 50)
            assert abs(fc[49] - fc[48] - model.drift_value) <= 1e-6

    def test_matches_zero_innovation_simulator(self, sc_series):
        train = slice_window(sc_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_arima(train, ArimaOrder(2, 1, 2, drift=True))
        fc = forecast_arima(model, 6)
        sim = oracles.arma_forecast_on_diffs(
            list(model.tail_diffs),
            list(model.tail_residuals),
            2, 2, list(model.ar_coeffs), list(model.ma_coeffs), 6)
        levels = np.cumsum(np.array(sim) + model.drift_value) + train.values[-1]
        assert np.allclose(fc, levels, atol=1e-9)

    def test_invalid_horizon(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_arima(train, ArimaOrder(0, 1, 0))
        with pytest.raises(ValueError):
            forecast_arima(model, 0)
