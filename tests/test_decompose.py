import numpy as np
import pytest

import oracles
from indexcast import (ComputationError, InsufficientCoverageError,
                       SeriesTooShortError, centered_moving_average_trend,
                       component_percentage, decompose_additive, make_series,
                       seasonal_indices)

BIG = 1.7e308  # finite, but two of them overflow a sum


def alternating_extremes(n=36):
    return make_series("2010-01", [BIG if t % 2 else -BIG for t in range(n)])


def linear(a, b, n, start="2010-01"):
    return make_series(start, [a + b * t for t in range(n)])


class TestCenteredMovingAverage:
    def test_table_anchor_july_2010(self, cd_series):
        trend = centered_moving_average_trend(cd_series)
        assert trend[6] == pytest.approx(5247.54, abs=0.01)
        assert round(trend[6]) == 5248

    def test_constant_series(self):
        trend = centered_moving_average_trend(make_series("2010-01", [7.0] * 24))
        assert trend[:6] == (None,) * 6 and trend[-6:] == (None,) * 6
        assert all(v == pytest.approx(7.0) for v in trend[6:18])

    def test_linear_series_passes_through(self):
        # symmetric weights: the average of a + b*t over the 13-term window
        # recentres on t, so the trend equals the line itself
        a, b, n = 1.0, 2.0, 36
        trend = centered_moving_average_trend(linear(a, b, n))
        brute = oracles.cma_trend([a + b * t for t in range(n)])
        for t in range(6, n - 6):
            assert trend[t] == pytest.approx(a + b * t, abs=1e-9)
            assert trend[t] == pytest.approx(brute[t], abs=1e-9)

    def test_too_short(self):
        with pytest.raises(SeriesTooShortError):
            centered_moving_average_trend(make_series("2010-01", [1.0] * 12))


class TestSeasonalIndices:
    def test_zero_sum_and_table_values(self, cd_series):
        trend = centered_moving_average_trend(cd_series)
        idx = seasonal_indices(cd_series, trend)
        assert sum(idx) == pytest.approx(0.0, abs=1e-9)
        published = [-180, -185, -176, 55, 88, -5, 53, -78, 122, 251, 182, -127]
        for ours, ref in zip(idx, published):
            assert ours == pytest.approx(ref, abs=1.0)

    def test_pure_linear_trend_has_no_seasonality(self):
        s = linear(5.0, 3.0, 48)
        idx = seasonal_indices(s, centered_moving_average_trend(s))
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in idx)

    def test_recovers_injected_pattern(self):
        pattern = [12.0, -3.0, 5.0, -8.0, 2.0, 1.0, -4.0, 7.0, -6.0, 3.0, -9.0, 0.0]
        s = make_series("2010-01", [100.0 + pattern[t % 12] for t in range(48)])
        idx = seasonal_indices(s, centered_moving_average_trend(s))
        for ours, ref in zip(idx, pattern):
            assert ours == pytest.approx(ref, abs=1e-6)

    def test_insufficient_coverage(self):
        s = make_series("2010-01", list(range(20)))
        trend = centered_moving_average_trend(s)
        with pytest.raises(InsufficientCoverageError):
            seasonal_indices(s, trend)


    @pytest.mark.filterwarnings("error")
    def test_overflowing_means_raise_without_a_warning(self):
        # each calendar month's detrended values share a sign near 1.7e308,
        # so their sum overflows; the arrays must not warn on the way
        series = alternating_extremes()
        with pytest.raises(ComputationError, match="seasonal indices"):
            seasonal_indices(series, centered_moving_average_trend(series))


class TestDecomposeAdditive:
    def test_consumer_durables_july_2010(self, cd_series):
        d = decompose_additive(cd_series)
        assert d.trend[6] == pytest.approx(5248, abs=1)
        assert d.seasonal[6] == pytest.approx(53, abs=1)
        assert d.random[6] == pytest.approx(-216, abs=1)

    def test_small_cap_july_2010(self, sc_series):
        d = decompose_additive(sc_series)
        assert d.trend[6] == pytest.approx(9324, abs=1)
        assert d.seasonal[6] == pytest.approx(214, abs=1)
        assert d.random[6] == pytest.approx(-214, abs=1)

    def test_constant_series(self):
        d = decompose_additive(make_series("2010-01", [11.0] * 30))
        assert all(v == pytest.approx(0.0, abs=1e-12) for v in d.seasonal_indices)
        for t, r in zip(d.trend, d.random):
            if t is not None:
                assert t == pytest.approx(11.0) and r == pytest.approx(0.0, abs=1e-12)

    def test_absence_pattern(self, cd_series):
        d = decompose_additive(cd_series)
        n = len(cd_series)
        for i in range(n):
            defined = 6 <= i <= n - 7
            assert (d.trend[i] is not None) == defined
            assert (d.random[i] is not None) == defined

    def test_trend_series_helper(self, cd_series):
        d = decompose_additive(cd_series)
        ts = d.trend_series()
        assert ts.start.months_until(cd_series.start) == -6
        assert len(ts) == len(cd_series) - 12
        assert ts.values[0] == d.trend[6]

    def test_too_short_propagates(self):
        with pytest.raises(SeriesTooShortError):
            decompose_additive(make_series("2010-01", [1.0] * 12))
        with pytest.raises(SeriesTooShortError):
            decompose_additive(make_series("2010-01", list(range(20))))

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_a_computation_error(self):
        with pytest.raises(ComputationError, match="seasonal indices"):
            decompose_additive(alternating_extremes())
        # finite indices, but y - trend - seasonal overflows in 2011-07
        extremes = {1: -BIG, 3: BIG, 6: BIG, 7: -BIG, 11: -BIG, 12: BIG,
                    17: BIG, 18: -BIG}
        series = make_series("2010-01", [extremes.get(t, 0.0) for t in range(25)])
        with pytest.raises(ComputationError,
                           match="random component at 2011-07 is not finite"):
            decompose_additive(series)


class TestDecompositionProperties:
    def test_reconstruction_shift_scale_and_oracle(self):
        rng = np.random.default_rng(20100101)
        for _ in range(100):
            n = int(rng.integers(24, 97))
            start_month = int(rng.integers(1, 13))
            values = rng.normal(1000, 200, n) + np.linspace(0, rng.uniform(-300, 300), n)
            s = make_series(f"2011-{start_month:02d}", values)
            d = decompose_additive(s)
            # reconstruction is exact where the trend is defined
            for i in range(n):
                if d.trend[i] is not None:
                    total = d.trend[i] + d.seasonal[i] + d.random[i]
                    assert total == pytest.approx(s.values[i], abs=1e-9)
            assert sum(d.seasonal_indices) == pytest.approx(0.0, abs=1e-9 * 1000)
            # independent loop-coded decomposition agrees
            trend, idx, seasonal, random = oracles.decompose(
                list(values), start_month - 1)
            for i in range(n):
                if trend[i] is None:
                    assert d.trend[i] is None
                else:
                    assert d.trend[i] == pytest.approx(trend[i], abs=1e-9)
                    assert d.random[i] == pytest.approx(random[i], abs=1e-9)
                assert d.seasonal[i] == pytest.approx(seasonal[i], abs=1e-9)
            # shift equivariance
            shifted = decompose_additive(make_series(f"2011-{start_month:02d}",
                                                     values + 500.0))
            for i in range(n):
                if d.trend[i] is not None:
                    assert shifted.trend[i] - d.trend[i] == pytest.approx(500.0, abs=1e-8)
                    assert shifted.random[i] == pytest.approx(d.random[i], abs=1e-8)
            for a, b in zip(shifted.seasonal_indices, d.seasonal_indices):
                assert a == pytest.approx(b, abs=1e-8)
            # scale equivariance
            scaled = decompose_additive(make_series(f"2011-{start_month:02d}",
                                                    values * 3.0))
            for i in range(n):
                if d.trend[i] is not None:
                    assert scaled.trend[i] == pytest.approx(3.0 * d.trend[i], rel=1e-12)
                    assert scaled.random[i] == pytest.approx(3.0 * d.random[i],
                                                             rel=1e-9, abs=1e-8)


class TestComponentPercentage:
    def test_direct_quotients_from_tables(self, cd_series, sc_series):
        d = decompose_additive(cd_series)
        pct = component_percentage(cd_series, d.seasonal)
        # November 2010: seasonal 182 over aggregate 6742
        assert pct[10] == pytest.approx(182 / 6742 * 100, abs=0.03)
        assert pct[10] == pytest.approx(2.700, abs=0.03)
        dsc = decompose_additive(sc_series)
        rnd = component_percentage(sc_series, dsc.random)
        # November 2011: random -836 over aggregate 6444
        assert rnd[22] == pytest.approx(-836 / 6444 * 100, abs=0.03)
        assert rnd[22] == pytest.approx(-12.973, abs=0.03)

    def test_zero_component_and_none_passthrough(self):
        s = make_series("2010-01", [10.0, 20.0])
        assert component_percentage(s, (0.0, None)) == (0.0, None)

    def test_zero_aggregate_raises(self):
        s = make_series("2010-01", [0.0, 1.0])
        with pytest.raises(ZeroDivisionError):
            component_percentage(s, (1.0, 1.0))

    def test_misaligned_component_rejected(self):
        s = make_series("2010-01", [10.0, 20.0])
        with pytest.raises(ValueError):
            component_percentage(s, (1.0,))
