import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from indexcast import (ComputationError, HoltWintersParams, MonthStamp,
                       SeriesTooShortError, fit_holt_winters, forecast_hw,
                       initialize_state, make_series, one_step_sse,
                       slice_window)

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


class TestInitializeState:
    def test_constant_series(self):
        level, slope, seasonal = initialize_state(make_series("2010-01", [9.0] * 24))
        assert level == pytest.approx(9.0)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert all(s == pytest.approx(0.0, abs=1e-12) for s in seasonal)

    def test_linear_ramp_recovers_slope(self):
        level, slope, seasonal = initialize_state(
            make_series("2010-01", [5.0 + 3.0 * t for t in range(24)]))
        assert slope == pytest.approx(3.0, abs=1e-9)
        assert all(s == pytest.approx(0.0, abs=1e-9) for s in seasonal)

    def test_flat_seasonal_recovers_pattern(self):
        s = make_series("2010-01", [100.0 + ZERO_SUM_PATTERN[t % 12]
                                    for t in range(24)])
        level, slope, seasonal = initialize_state(s)
        assert level == pytest.approx(100.0, abs=1e-9)
        assert slope == pytest.approx(0.0, abs=1e-9)
        for ours, ref in zip(seasonal, ZERO_SUM_PATTERN):
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_matches_loop_oracle_on_shifted_start(self):
        rng = np.random.default_rng(7)
        values = list(rng.normal(500, 40, 30))
        s = make_series("2011-04", values)
        level, slope, seasonal = initialize_state(s)
        olevel, oslope, oseasonal = oracles.hw_initial_state(values, 3)
        assert level == pytest.approx(olevel, rel=1e-12)
        assert slope == pytest.approx(oslope, rel=1e-12)
        for ours, ref in zip(seasonal, oseasonal):
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            initialize_state(make_series("2010-01", [1.0] * 23))


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
        with pytest.raises(SeriesTooShortError):
            one_step_sse(short, HoltWintersParams(0.3, 0.2, 0.1))
        series = make_series("2010-01", values)
        model = fit_holt_winters(series)
        assert model.sse == pytest.approx(one_step_sse(series, model.params))

    def test_overflow_is_a_computation_error(self):
        # squared one-step errors of a series near 1e200 overflow to inf
        series = trend_seasonal_series(1e200, 1e197, 60)
        with np.errstate(all="ignore"), pytest.raises(ComputationError):
            fit_holt_winters(series)


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


class TestSummary:
    def test_key_value_block(self, cd_series):
        train = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        text = fit_holt_winters(train).summary()
        for key in ("alpha=", "beta=", "gamma=", "sse=", "level=", "slope=",
                    "seasonal="):
            assert key in text
        assert len(text.splitlines()[-1].split("=")[1].split(",")) == 12
