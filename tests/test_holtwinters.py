import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from indexcast import (ComputationError, HoltWintersParams, MonthStamp,
                       SeriesTooShortError, fit_holt_winters, forecast_hw,
                       make_series, slice_window)
from indexcast.holtwinters import (GRID_POINTS, _fit_windows, _run_filter,
                                   _state_of)

ZERO_SUM_PATTERN = (40.0, -25.0, 10.0, -5.0, 30.0, -45.0,
                    15.0, -20.0, 35.0, -10.0, -15.0, -10.0)


def trend_seasonal_series(a, b, n, start="2010-01", pattern=ZERO_SUM_PATTERN):
    return make_series(start, [a + b * t + pattern[t % 12] for t in range(n)])


class TestParams:
    def test_range_validation(self):
        HoltWintersParams(0.0, 0.5, 1.0)
        for bad in [(-0.1, 0, 0), (0, 1.2, 0), (0, 0, 2.0)]:
            with pytest.raises(ValueError):
                HoltWintersParams(*bad)


def initial_state(series):
    """(level, slope, seasonal[12]) that ``_state_of`` starts the filter from."""
    return _state_of(series)[2][:3]


class TestInitializeState:
    # 25 months: scoring needs one month past the two years the state uses

    def test_constant_series(self):
        level, slope, seasonal = initial_state(make_series("2010-01", [9.0] * 25))
        assert level == pytest.approx(9.0)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in seasonal)

    def test_linear_ramp_recovers_slope(self):
        level, slope, seasonal = initial_state(
            make_series("2010-01", [5.0 + 3.0 * t for t in range(25)]))
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in seasonal)

    def test_flat_seasonal_recovers_pattern(self):
        s = make_series("2010-01", [100.0 + ZERO_SUM_PATTERN[t % 12]
                                    for t in range(25)])
        level, slope, seasonal = initial_state(s)
        assert level == pytest.approx(100.0, abs=1e-9)
        assert slope == pytest.approx(0.0, abs=1e-9)
        for ours, ref in zip(seasonal, ZERO_SUM_PATTERN):
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_matches_loop_oracle_on_shifted_start(self):
        rng = np.random.default_rng(7)
        values = list(rng.normal(500, 40, 30))
        s = make_series("2011-04", values)
        level, slope, seasonal = initial_state(s)
        olevel, oslope, oseasonal = oracles.hw_initial_state(values, 3)
        assert level == pytest.approx(olevel, rel=1e-12)
        assert slope == pytest.approx(oslope, rel=1e-12)
        for ours, ref in zip(seasonal, oseasonal):
            assert ours == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("start_month", range(1, 13))
    def test_matches_loop_oracle_at_the_minimum(self, start_month):
        # every start month's first two years cover each calendar month once
        values = list(np.random.default_rng(start_month).normal(500, 40, 25))
        level, slope, seasonal = initial_state(
            make_series(f"2011-{start_month:02d}", values))
        olevel, oslope, oseasonal = oracles.hw_initial_state(values,
                                                             start_month - 1)
        assert level == pytest.approx(olevel, rel=1e-12)
        assert slope == pytest.approx(oslope, rel=1e-12, abs=1e-12)
        for ours, ref in zip(seasonal, oseasonal):
            assert ours == pytest.approx(ref, abs=1e-9)


def one_step_sse(series, params):
    """The one-step SSE over months 25..n at `params`, as the fit scores it."""
    values, month_idx, state = _state_of(series)
    return _run_filter(values, month_idx, 12, state,
                       params.alpha, params.beta, params.gamma)[3]


class TestOneStepSse:
    def test_constant_series_zero(self):
        s = make_series("2010-01", [42.0] * 36)
        assert one_step_sse(s, HoltWintersParams(0.3, 0.4, 0.5)) == pytest.approx(0.0, abs=1e-18)

    def test_full_smoothing_tracks_deterministic_signal(self):
        s = trend_seasonal_series(100.0, 5.0, 60)
        assert one_step_sse(s, HoltWintersParams(1.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-6)

    def test_matches_loop_oracle_on_fixture(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        ours = one_step_sse(train, HoltWintersParams(0.5, 0.5, 0.5))
        ref = oracles.hw_sse(list(train.values), 0, 0.5, 0.5, 0.5)
        assert ours == pytest.approx(ref, rel=1e-6)

    def test_matches_loop_oracle_random_params(self, sc_series):
        rng = np.random.default_rng(11)
        values = list(sc_series.values)
        for _ in range(10):
            a, b, g = rng.uniform(0, 1, 3)
            ours = one_step_sse(sc_series, HoltWintersParams(a, b, g))
            assert ours == pytest.approx(oracles.hw_sse(values, 0, a, b, g), rel=1e-9)


def seeded_series(seed, n):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return make_series("2010-01", rng.uniform(10.0, 1e4) * np.exp(
        rng.normal(0.0, 0.05, n).cumsum()
        + rng.uniform(0.0, 0.2) * np.sin(2 * np.pi * t / 12)))


def jump_series(n=60):
    # a jump near 1e154 squares past the float range for the slow-adapting
    # triples only, so some grid SSEs are inf and the rest finite
    rng = np.random.default_rng(0)
    return make_series("2010-01", [1e150 * (1.0 + 0.01 * rng.normal())
                                   + (1e154 if t >= 40 else 0.0)
                                   for t in range(n)])


def grid_axes():
    grid = np.linspace(0.0, 1.0, GRID_POINTS)
    return [axis.ravel() for axis in np.meshgrid(grid, grid, grid, indexing="ij")]


def full_run(state, alpha, beta, gamma):
    """``_run_filter`` from step 12 over all of ``_state_of``'s values."""
    values, month_idx, start = state
    return _run_filter(values, month_idx, 12, start, alpha, beta, gamma)


class TestGridCall:
    """The grid scores all triples in one array call of the float filter."""

    @staticmethod
    def float_grid_sse(state):
        # the reference: one float call per triple, in lexicographic order
        points = np.linspace(0.0, 1.0, GRID_POINTS).tolist()
        triples = [(a, b, g) for a in points for b in points for g in points]
        return triples, [full_run(state, *abg)[3] for abg in triples]

    def grid_sse_hex(self, series):
        state = _state_of(series)
        with np.errstate(over="ignore", invalid="ignore"):
            array_sse = full_run(state, *grid_axes())[3]
        _, float_sse = self.float_grid_sse(state)
        return [float(v).hex() for v in array_sse], [v.hex() for v in float_sse]

    @pytest.mark.parametrize("sector", ["CD", "SC"])
    def test_fixture_windows(self, sector, cd_series, sc_series):
        series = {"CD": cd_series, "SC": sc_series}[sector]
        train = slice_window(series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        array_hex, float_hex = self.grid_sse_hex(train)
        assert array_hex == float_hex

    @pytest.mark.parametrize("n", [25, 26, 37])
    def test_short_prefixes(self, n, cd_series, sc_series):
        for series in (cd_series, sc_series):
            array_hex, float_hex = self.grid_sse_hex(
                make_series("2010-01", series.values[:n]))
            assert array_hex == float_hex

    @pytest.mark.parametrize("seed, n", [(1, 48), (2, 72), (3, 121), (4, 240)])
    def test_seeded_series(self, seed, n):
        array_hex, float_hex = self.grid_sse_hex(seeded_series(seed, n))
        assert array_hex == float_hex

    @pytest.mark.parametrize("sector", ["CD", "SC", "constant"])
    def test_refine_starts_from_the_first_float_minimum(self, sector, cd_series,
                                                        sc_series, monkeypatch):
        # sse.index(min(sse)) is the first minimum the float loop would pick;
        # the constant series ties every triple at 0
        from indexcast import holtwinters
        window = (MonthStamp(2010, 1), MonthStamp(2014, 12))
        train = {"CD": slice_window(cd_series, *window),
                 "SC": slice_window(sc_series, *window),
                 "constant": make_series("2010-01", [42.0] * 36)}[sector]
        starts = []
        real_minimize = holtwinters.minimize

        def spy(fun, x0, **kwargs):
            starts.append((x0, kwargs["fatol"]))
            return real_minimize(fun, x0, **kwargs)

        monkeypatch.setattr(holtwinters, "minimize", spy)
        fit_holt_winters(train)
        triples, sse = self.float_grid_sse(_state_of(train))
        first = sse.index(min(sse))
        [(x0, fatol)] = starts
        assert x0 == triples[first] and all(type(v) is float for v in x0)
        assert type(fatol) is float and fatol == 1e-10 * sse[first]

    def test_ties_break_toward_the_smallest_triple(self, monkeypatch):
        # a surface that is zero on the planes alpha = 0.3 and beta = 0.5:
        # only the scan order picks (0, 0.5, 0) over (0.3, 0, 0)
        from indexcast import holtwinters
        points = np.linspace(0.0, 1.0, GRID_POINTS).tolist()

        def surface(values, month_idx, start, state, alpha, beta, gamma):
            level, slope, seasonal, _ = state
            sse = ((alpha - points[3]) * (beta - points[5])) ** 2
            return level, slope, list(seasonal), sse

        monkeypatch.setattr(holtwinters, "_run_filter", surface)
        model = fit_holt_winters(trend_seasonal_series(100.0, 5.0, 36))
        assert model.params == HoltWintersParams(0.0, points[5], 0.0)

    def test_non_finite_positions(self):
        array_hex, float_hex = self.grid_sse_hex(jump_series())
        assert array_hex == float_hex
        assert 0 < float_hex.count("inf") < len(float_hex)

    @pytest.mark.parametrize("sector", ["CD", "SC", "seeded", "jump"])
    def test_resumed_pass_equals_one_full_pass(self, sector, cd_series,
                                               sc_series):
        # the grid run on through each end in turn holds, at every end, the
        # state of one pass from step 12 over that window, bit for bit; an
        # sse returned at an end is not changed by the segments after it
        series = {"CD": cd_series, "SC": sc_series,
                  "seeded": seeded_series(5, 120), "jump": jump_series()}[sector]
        values, month_idx, start = _state_of(series)
        abg = grid_axes()
        stops = [25, 26, 27, 37, 48, 49, len(series) - 1, len(series)]

        def state_hex(state):
            level, slope, seasonal, sse = state
            return [[float(v).hex() for v in part]
                    for part in (level, slope, *seasonal, sse)]

        resumed, returned_sse, state, resume = [], [], start, 12
        with np.errstate(over="ignore", invalid="ignore"):
            for stop in stops:
                state = _run_filter(values[:stop], month_idx[:stop], resume,
                                    state, *abg)
                resume = stop
                resumed.append(state_hex(state))
                returned_sse.append(state[3])
            full = [state_hex(_run_filter(values[:stop], month_idx[:stop], 12,
                                          start, *abg)) for stop in stops]
        assert resumed == full
        assert [[float(v).hex() for v in sse] for sse in returned_sse] == [
            hexes[-1] for hexes in full]


class TestFit:
    def test_noiseless_signal_fits_exactly(self):
        model = fit_holt_winters(trend_seasonal_series(100.0, 5.0, 60))
        assert model.sse <= 1e-3

    def test_constant_series_forecasts_constant(self):
        model = fit_holt_winters(make_series("2010-01", [42.0] * 36))
        # flat SSE surface: the grid tie-break lands on the smallest triple
        assert (model.params.alpha, model.params.beta, model.params.gamma) == (0, 0, 0)
        assert all(f == pytest.approx(42.0, abs=1e-9)
                   for f in forecast_hw(model, 24))

    def test_fit_beats_random_parameter_sample(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_holt_winters(train)
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b, g = rng.uniform(0, 1, 3)
            assert model.sse <= one_step_sse(train, HoltWintersParams(a, b, g)) + 1e-9

    def test_fit_beats_coarse_grid(self, sc_series):
        train = slice_window(sc_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_holt_winters(train)
        grid = np.linspace(0, 1, 11)
        grid_best = min(one_step_sse(train, HoltWintersParams(a, b, g))
                        for a in grid for b in grid for g in grid)
        assert model.sse <= grid_best + 1e-9

    def test_determinism(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        assert fit_holt_winters(train) == fit_holt_winters(train)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(3)
        values = rng.normal(800, 60, 48) + np.linspace(0, 150, 48)
        base = fit_holt_winters(make_series("2010-01", values))
        shift = 250.0
        moved = fit_holt_winters(make_series("2010-01", values + shift))
        fc_base = forecast_hw(base, 12)
        fc_moved = forecast_hw(moved, 12)
        for a, b in zip(fc_base, fc_moved):
            assert b - a == pytest.approx(shift, abs=1e-3 * shift)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(25, 120),
           k=st.integers(-60, 60))
    def test_power_of_two_scaling_is_exact(self, seed, n, k):
        # scaling by 2**k is exact in floating point, so a units-free fit
        # must return the same constants and exactly scaled forecasts
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        y = np.clip(rng.uniform(1.0, 1e6) * np.exp(
            rng.normal(0.0, 0.05, n).cumsum()
            + rng.uniform(0.0, 0.2) * np.sin(2 * np.pi * t / 12)), 1.0, 1e6)
        scale = 2.0 ** k
        base = fit_holt_winters(make_series("2010-01", y))
        scaled = fit_holt_winters(make_series("2010-01", y * scale))
        assert scaled.params == base.params
        assert forecast_hw(scaled, 12) == tuple(
            f * scale for f in forecast_hw(base, 12))

    def test_needs_a_scored_month(self):
        # months 1..24 only start the recursions; month 25 is the first scored
        values = [500.0 + 3.0 * t + ZERO_SUM_PATTERN[t % 12] + (t % 5)
                  for t in range(25)]
        short = make_series("2010-01", values[:24])
        with pytest.raises(SeriesTooShortError):
            fit_holt_winters(short)
        series = make_series("2010-01", values)
        model = fit_holt_winters(series)
        assert model.sse == pytest.approx(one_step_sse(series, model.params))

    def test_overflow_is_a_computation_error(self):
        # squared one-step errors of a series near 1e200 overflow to inf
        series = trend_seasonal_series(1e200, 1e197, 60)
        with np.errstate(all="ignore"), pytest.raises(ComputationError):
            fit_holt_winters(series)

    def test_overflow_raises_without_a_warning(self):
        # no errstate here: the library itself must keep the grid's
        # overflowing array arithmetic quiet, as plain floats are
        series = trend_seasonal_series(1e200, 1e197, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputationError):
                fit_holt_winters(series)

    def test_start_state_overflow_raises_without_a_warning(self):
        # the first two years' trend values sum past the float range in the
        # least squares line that gives the starting level and slope
        series = make_series("2010-01", [1e308 * (1.0 + 0.01 * (t % 7))
                                         for t in range(37)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ComputationError, match="not finite"):
                fit_holt_winters(series)


def window_fits(series, ends):
    """The reference: one ``fit_holt_winters`` per training window."""
    return [fit_holt_winters(slice_window(series, series.start, end))
            for end in ends]


def raised(call):
    try:
        call()
    except Exception as exc:  # the error type and text are compared
        return type(exc), str(exc)
    return None


class TestSharedFit:
    """One grid pass through every end fits each window as a fit of it alone."""

    def assert_same_models(self, series, ends):
        shared = _fit_windows(series, ends)
        alone = window_fits(series, ends)
        assert [repr(m) for m in shared] == [repr(m) for m in alone]
        assert shared == alone

    @pytest.mark.parametrize("sector", ["CD", "SC"])
    def test_method_ii_windows(self, sector, cd_series, sc_series):
        series = {"CD": cd_series, "SC": sc_series}[sector]
        self.assert_same_models(
            series, [MonthStamp(2014, 12).offset(k) for k in range(12)])

    @pytest.mark.parametrize("seed, n", [(6, 48), (7, 97), (8, 240)])
    def test_seeded_windows_from_25_months(self, seed, n):
        series = seeded_series(seed, n)
        stops = sorted({25, 26, 27, 36, (n + 25) // 2, n - 13, n - 1, n})
        self.assert_same_models(
            series, [series.start.offset(stop - 1) for stop in stops])

    def test_24_month_first_window_is_refused_alike(self, cd_series):
        ends = [cd_series.start.offset(23), cd_series.start.offset(30)]
        error = raised(lambda: _fit_windows(cd_series, ends))
        assert error == raised(lambda: window_fits(cd_series, ends))
        assert error == (SeriesTooShortError,
                         "scoring needs at least 25 months, got 24")

    def test_first_overflowing_end_raises_alike(self):
        # every one-step error from month 41 on squares past the float
        # range, so windows of 40 months fit and longer ones overflow
        base = trend_seasonal_series(500.0, 3.0, 40).values
        series = make_series("2010-01", base + (1e200,) * 20)
        ends = [series.start.offset(stop - 1) for stop in (30, 40, 41, 50)]
        window_fits(series, ends[:2])
        error = raised(lambda: _fit_windows(series, ends))
        assert error == raised(lambda: window_fits(series, ends))
        assert error[0] is ComputationError and "not finite" in error[1]


class TestForecast:
    def model(self, level, slope, seasonal, end=MonthStamp(2014, 12)):
        from indexcast import HoltWintersModel
        return HoltWintersModel(HoltWintersParams(0.5, 0.5, 0.5), level, slope,
                                tuple(seasonal), 0.0, (MonthStamp(2010, 1), end))

    def test_linear_extrapolation(self):
        m = self.model(100.0, 2.0, [0.0] * 12)
        assert forecast_hw(m, 3) == pytest.approx((102.0, 104.0, 106.0))

    def test_periodic_repetition(self):
        seasonal = [10.0] + [0.0] * 11  # January bump, train ends in December
        m = self.model(100.0, 0.0, seasonal)
        fc = forecast_hw(m, 13)
        assert fc[0] == pytest.approx(110.0)
        assert fc[12] == pytest.approx(110.0)
        assert fc[1] == pytest.approx(100.0)

    def test_decomposability_across_a_period(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        model = fit_holt_winters(train)
        fc = forecast_hw(model, 30)
        for h in range(13, 31):
            assert fc[h - 1] - fc[h - 13] == pytest.approx(
                12 * model.trend_slope, rel=1e-9, abs=1e-9)

    def test_invalid_horizon(self):
        m = self.model(1.0, 0.0, [0.0] * 12)
        with pytest.raises(ValueError):
            forecast_hw(m, 0)

    def test_published_anchor_january_2015(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        fc = forecast_hw(fit_holt_winters(train), 12)
        assert fc[0] == pytest.approx(9451, rel=0.05)
