import numpy as np
import pytest

from golden_tables import CD_METHOD_I, CD_METHOD_III, SC_METHOD_III
from indexcast import (InsufficientDataError, MonthStamp, NoOverlapError,
                       OutOfRangeError, SeriesTooShortError,
                       absolute_percentage_error,
                       compare_hypotheses, component_percentage,
                       decompose_additive, make_series, run_fixed_origin,
                       run_method, run_rolling, run_trend_seasonal,
                       structural_stability, summarize_errors)

ZERO_SUM_PATTERN = (40.0, -25.0, 10.0, -5.0, 30.0, -45.0,
                    15.0, -20.0, 35.0, -10.0, -15.0, -10.0)


def deterministic_series(n, a=1000.0, b=8.0):
    return make_series("2010-01", [a + b * t + ZERO_SUM_PATTERN[t % 12]
                                   for t in range(n)])


def stub_fits(monkeypatch, evaluate):
    """Record, in place of fitting, every fit entry ``evaluate`` calls:
    the shared Holt-Winters window fit, the one-window fit and ARIMA
    order selection."""
    fits = []
    for name in ("_fit_windows", "fit_holt_winters", "select_order"):
        monkeypatch.setattr(evaluate, name, lambda *args: fits.append(args))
    return fits


class TestAbsolutePercentageError:
    def test_published_cells(self):
        assert absolute_percentage_error(10027, 9451) == pytest.approx(5.74, abs=0.01)
        # forecast below actual still yields a positive error
        assert absolute_percentage_error(11294, 10790) == pytest.approx(4.46, abs=0.01)

    def test_exact_forecast(self):
        assert absolute_percentage_error(123.4, 123.4) == 0.0

    def test_zero_actual(self):
        with pytest.raises(ZeroDivisionError):
            absolute_percentage_error(0.0, 1.0)


class TestSummarizeErrors:
    def test_published_method_i_row(self):
        apes = [row[3] for row in CD_METHOD_I]
        s = summarize_errors(apes)
        assert s.min == pytest.approx(1.44, abs=0.01)
        assert s.max == pytest.approx(12.91, abs=0.01)
        assert s.mean == pytest.approx(7.58, abs=0.01)
        assert s.sd == pytest.approx(3.56, abs=0.01)
        # the n-1 denominator is what reproduces 3.56 (n gives 3.41)
        assert s.sd == pytest.approx(3.558, abs=0.01)

    def test_all_equal(self):
        s = summarize_errors([5.0, 5.0, 5.0])
        assert (s.min, s.max, s.mean, s.sd) == (5.0, 5.0, 5.0, 0.0)

    def test_permutation_invariance(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0]
        assert summarize_errors(values) == summarize_errors(values[::-1])

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            summarize_errors([1.0])

    @pytest.mark.parametrize("engine", ["holt_winters", "arima"])
    @pytest.mark.parametrize("protocol", ["fixed_horizon_1", "rolling_one_month"])
    def test_single_error_raises_before_any_fit(self, cd_series, monkeypatch,
                                                engine, protocol):
        from indexcast import evaluate
        fits = stub_fits(monkeypatch, evaluate)
        with pytest.raises(InsufficientDataError):
            if protocol == "fixed_horizon_1":
                run_fixed_origin(cd_series, engine, MonthStamp(2014, 12), 1)
            else:
                run_rolling(cd_series, engine, MonthStamp(2015, 1), MonthStamp(2015, 1))
        assert fits == []

    @pytest.mark.parametrize("engine", ["holt_winters", "arima"])
    def test_horizon_zero_raises_before_any_fit(self, cd_series, monkeypatch,
                                                engine):
        from indexcast import evaluate
        fits = stub_fits(monkeypatch, evaluate)
        with pytest.raises(ValueError, match="^horizon must be >= 1, got 0$"):
            run_fixed_origin(cd_series, engine, MonthStamp(2014, 12), 0)
        assert fits == []

    @pytest.mark.parametrize("protocol", ["fixed", "rolling"])
    @pytest.mark.parametrize("engine, error, message", [
        ("holt_winters", OutOfRangeError, "^2016-01 outside series span"),
        ("arima", OutOfRangeError, "^2016-01 outside series span"),
        ("naive", ValueError, "^unknown engine 'naive'$"),
    ], ids=["holt_winters", "arima", "unknown_engine"])
    def test_refused_request_raises_before_any_fit(self, cd_series, monkeypatch,
                                                   engine, protocol, error,
                                                   message):
        # the evaluation window runs six months past the series end: the
        # first evaluation month outside it is named, and an unknown engine
        # is refused before the window is looked at
        from indexcast import evaluate
        fits = stub_fits(monkeypatch, evaluate)
        with pytest.raises(error, match=message):
            if protocol == "fixed":
                run_fixed_origin(cd_series, engine, MonthStamp(2015, 6), 12)
            else:
                run_rolling(cd_series, engine, MonthStamp(2015, 7),
                            MonthStamp(2016, 6))
        assert fits == []


class TestFixedOrigin:
    def test_deterministic_pattern_forecasts_exactly(self):
        series = deterministic_series(72)
        report = run_fixed_origin(series, "holt_winters", MonthStamp(2014, 12), 12)
        assert report.method_id == "I"
        assert len(report.rows) == 12
        for row in report.rows:
            assert row.ape == pytest.approx(0.0, abs=1e-6)

    def test_summary_bounds_rows(self, method_reports):
        for report in method_reports.values():
            for row in report.rows:
                assert report.summary.min <= row.ape <= report.summary.max

    def test_method_ids(self, method_reports):
        for (sector, method), report in method_reports.items():
            assert report.method_id == method

    def test_rows_cover_2015(self, method_reports):
        months = [r.month for r in method_reports["CD", "I"].rows]
        assert months[0] == MonthStamp(2015, 1)
        assert months[-1] == MonthStamp(2015, 12)

    @pytest.mark.parametrize("fixed, rolling", [("I", "II"), ("IV", "V")])
    def test_first_month_matches_the_rolling_protocol(self, method_reports,
                                                      fixed, rolling):
        # both fit 2010-01..2014-12 and forecast 2015-01 from that one fit
        for sector in ("CD", "SC"):
            assert (method_reports[sector, fixed].rows[0]
                    == method_reports[sector, rolling].rows[0])

    def test_evaluation_window_must_exist(self, cd_series):
        from indexcast import OutOfRangeError
        with pytest.raises(OutOfRangeError):
            run_fixed_origin(cd_series, "holt_winters", MonthStamp(2015, 12), 12)

    def test_unknown_engine(self, cd_series):
        with pytest.raises(ValueError):
            run_fixed_origin(cd_series, "naive", MonthStamp(2014, 12), 12)


class TestRolling:
    def test_deterministic_pattern(self):
        series = deterministic_series(66)
        report = run_rolling(series, "holt_winters",
                             MonthStamp(2015, 1), MonthStamp(2015, 6))
        assert report.method_id == "II"
        for row in report.rows:
            assert row.ape == pytest.approx(0.0, abs=1e-6)

    def test_prefix_stability_holt_winters(self, cd_series):
        long = run_rolling(cd_series, "holt_winters",
                           MonthStamp(2015, 1), MonthStamp(2015, 6))
        short = run_rolling(cd_series, "holt_winters",
                            MonthStamp(2015, 1), MonthStamp(2015, 3))
        assert long.rows[:3] == short.rows

    def test_prefix_stability_arima(self):
        rng = np.random.default_rng(23)
        series = make_series("2010-01", np.cumsum(rng.normal(5, 20, 40)) + 500)
        long = run_rolling(series, "arima", MonthStamp(2012, 5), MonthStamp(2012, 7))
        short = run_rolling(series, "arima", MonthStamp(2012, 5), MonthStamp(2012, 6))
        assert long.rows[:2] == short.rows

    def test_reversed_window_is_out_of_range(self, cd_series):
        with pytest.raises(OutOfRangeError, match="empty evaluation window "
                                                  "2015-06..2015-05"):
            run_rolling(cd_series, "holt_winters", MonthStamp(2015, 6),
                        MonthStamp(2015, 5))

    def test_workers_other_than_one_raise_before_any_fit(self, cd_series,
                                                         monkeypatch):
        # every refit runs in the calling process; a caller asking for a
        # pool is told so instead of being run serially
        from indexcast import evaluate
        fits = stub_fits(monkeypatch, evaluate)
        with pytest.raises(ValueError, match="workers"):
            run_rolling(cd_series, "holt_winters", MonthStamp(2015, 1),
                        MonthStamp(2015, 4), workers=2)
        assert fits == []


class TestTrendSeasonal:
    def test_actual_sums_match_published_column(self, cd_series, sc_series, method_reports):
        for sector, golden in (("CD", CD_METHOD_III), ("SC", SC_METHOD_III)):
            report = method_reports[sector, "III"]
            for row, ref in zip(report.rows, golden):
                assert row.month == MonthStamp(ref[0], ref[1])
                assert row.actual == pytest.approx(ref[4], abs=2.0)

    def test_small_cap_july_2014_anchor(self, method_reports):
        row = method_reports["SC", "III"].rows[0]
        assert row.month == MonthStamp(2014, 7)
        assert row.actual == pytest.approx(9497, abs=2.0)  # 9283 + 214

    def test_june_2015_error_anchor(self, method_reports):
        row = method_reports["CD", "III"].rows[-1]
        assert row.month == MonthStamp(2015, 6)
        assert row.ape == pytest.approx(19.42, abs=5.0)

    def test_actual_sum_equals_aggregate_minus_random(self, cd_series, method_reports):
        dec = decompose_additive(cd_series)
        for row in method_reports["CD", "III"].rows:
            i = cd_series.index_of(row.month)
            assert row.actual == pytest.approx(cd_series.values[i] - dec.random[i],
                                               abs=1e-9)

    def test_needs_six_months_past_window(self, cd_series):
        from indexcast import OutOfRangeError
        with pytest.raises(OutOfRangeError, match="trend ends at 2015-06, before 2015-12"):
            run_trend_seasonal(cd_series, MonthStamp(2015, 6))

    def test_shortest_training_window(self):
        # 37 training months give the trend fit its 25 defined months and put
        # the first evaluation month at position 31, inside the full-series
        # trend (positions 6..n-7); 36 are too few to fit
        series = deterministic_series(37 + 12)
        train_end = series.start.offset(36)
        report = run_trend_seasonal(series, train_end)
        assert [row.month for row in report.rows] == [
            train_end.offset(h) for h in range(-5, 7)]
        with pytest.raises(SeriesTooShortError):
            run_trend_seasonal(series, series.start.offset(35))

    def test_too_short_window_names_its_length(self, cd_series):
        # the error names the window the caller gave, not the trend that
        # Holt-Winters fits
        with pytest.raises(SeriesTooShortError, match=(
                r"^method III needs at least 37 training months, whose trend "
                r"has the 25 that Holt-Winters needs; got 36 months with a "
                r"24-month trend$")):
            run_trend_seasonal(cd_series, MonthStamp(2012, 12))


class TestRunMethod:
    @pytest.mark.parametrize("method_id, horizon, message", [
        ("VI", 12, "unknown method"),
        ("iv", 12, "unknown method"),
        ("III", 6, "method III covers 12 months"),
        *[(method_id, 0, "horizon must be >= 1")
          for method_id in ("I", "II", "III", "IV", "V")],
    ])
    def test_bad_request_raises_before_any_fit(self, cd_series, monkeypatch,
                                               method_id, horizon, message):
        from indexcast import evaluate
        fits = stub_fits(monkeypatch, evaluate)
        with pytest.raises(ValueError, match=message):
            run_method(cd_series, method_id, MonthStamp(2014, 12), horizon)
        assert fits == []

    @pytest.mark.parametrize("method_id, protocol, args", [
        ("I", "run_fixed_origin", ("holt_winters", MonthStamp(2014, 12), 12)),
        ("II", "run_rolling",
         ("holt_winters", MonthStamp(2015, 1), MonthStamp(2015, 12))),
        ("III", "run_trend_seasonal", (MonthStamp(2014, 12),)),
        ("IV", "run_fixed_origin", ("arima", MonthStamp(2014, 12), 12)),
        ("V", "run_rolling",
         ("arima", MonthStamp(2015, 1), MonthStamp(2015, 12))),
    ])
    def test_dispatch_reaches_the_module_protocols(self, cd_series, monkeypatch,
                                                   method_id, protocol, args):
        # the protocol is looked up on the module at call time, so a wrapper
        # set there (as the benchmark's tracer sets one) sees the call
        from indexcast import evaluate
        calls = []
        monkeypatch.setattr(evaluate, protocol,
                            lambda *a: calls.append(a) or "report")
        assert run_method(cd_series, method_id, MonthStamp(2014, 12)) == "report"
        assert calls == [(cd_series, *args)]


    @pytest.mark.parametrize("method_id, horizon", [("I", 12), ("III", 12),
                                                    ("I", 6)])
    def test_default_train_end_is_horizon_months_before_the_end(
            self, cd_series, sc_series, method_id, horizon):
        given = {} if horizon == 12 else {"horizon": horizon}
        for series in (cd_series, sc_series):
            assert run_method(series, method_id, **given) == run_method(
                series, method_id, series.end.offset(-horizon), horizon)


class TestStructuralStability:
    WINDOW_A = (MonthStamp(2010, 1), MonthStamp(2014, 12))
    WINDOW_B = (MonthStamp(2011, 1), MonthStamp(2015, 12))

    def test_default_windows_drop_the_last_and_the_first_year(self, cd_series,
                                                              sc_series):
        for series in (cd_series, sc_series):
            assert structural_stability(series) == structural_stability(
                series, self.WINDOW_A, self.WINDOW_B)

    def test_one_window_given_leaves_the_other_at_its_default(self, cd_series,
                                                              sc_series):
        shorter_a = (MonthStamp(2010, 1), MonthStamp(2013, 12))
        shorter_b = (MonthStamp(2012, 1), MonthStamp(2015, 12))
        for series in (cd_series, sc_series):
            assert structural_stability(series, shorter_a) == (
                structural_stability(series, shorter_a, self.WINDOW_B))
            assert structural_stability(series, window_b=shorter_b) == (
                structural_stability(series, self.WINDOW_A, shorter_b))

    def test_default_windows_need_37_months(self, cd_series):
        short = make_series("2010-01", cd_series.values[:36])
        with pytest.raises(SeriesTooShortError, match="^the default windows "
                           "need at least 37 months, got 36$"):
            structural_stability(short)
        # with a window given, the windows themselves decide
        with pytest.raises(NoOverlapError):
            structural_stability(short, (MonthStamp(2010, 1), MonthStamp(2011, 12)))
        rows = structural_stability(make_series("2010-01", cd_series.values[:37]))
        assert [row.month for row in rows] == [MonthStamp(2011, 7)]

    def test_zero_sum_names_its_month(self):
        zeros = make_series("2010-01", [0.0] * 48)
        windows = ((MonthStamp(2010, 1), MonthStamp(2012, 12)),
                   (MonthStamp(2011, 1), MonthStamp(2013, 12)))
        for args in ((), windows):
            with pytest.raises(ZeroDivisionError, match="^window A's trend plus "
                               "seasonal sum is zero at 2011-07$"):
                structural_stability(zeros, *args)

    def test_published_anchors(self, cd_series, sc_series):
        rows = structural_stability(cd_series, self.WINDOW_A, self.WINDOW_B)
        assert rows[0].month == MonthStamp(2011, 7)
        assert rows[0].sum_a == pytest.approx(6212, abs=2)
        assert rows[0].sum_b == pytest.approx(6366, abs=2)
        assert rows[0].variation_pct == pytest.approx(2.48, abs=0.05)
        sc_rows = structural_stability(sc_series, self.WINDOW_A, self.WINDOW_B)
        oct_2011 = [r for r in sc_rows if r.month == MonthStamp(2011, 10)][0]
        assert oct_2011.variation_pct == pytest.approx(-4.01, abs=0.05)

    def test_overlap_is_july_2011_to_june_2014(self, cd_series):
        rows = structural_stability(cd_series, self.WINDOW_A, self.WINDOW_B)
        assert len(rows) == 36
        assert rows[0].month == MonthStamp(2011, 7)
        assert rows[-1].month == MonthStamp(2014, 6)

    def test_trend_columns_identical(self, cd_series, sc_series):
        for series in (cd_series, sc_series):
            for row in structural_stability(series, self.WINDOW_A, self.WINDOW_B):
                assert row.trend_a == row.trend_b  # exact float equality

    def test_identical_windows_zero_variation(self, cd_series):
        rows = structural_stability(cd_series, self.WINDOW_A, self.WINDOW_A)
        assert all(r.variation_pct == 0.0 for r in rows)

    def test_sum_columns_are_sums(self, cd_series):
        for r in structural_stability(cd_series, self.WINDOW_A, self.WINDOW_B):
            assert r.sum_a == pytest.approx(r.trend_a + r.seasonal_a, abs=1e-12)
            assert r.sum_b == pytest.approx(r.trend_b + r.seasonal_b, abs=1e-12)

    def test_no_overlap(self, cd_series):
        with pytest.raises(NoOverlapError):
            structural_stability(cd_series,
                                 (MonthStamp(2010, 1), MonthStamp(2012, 6)),
                                 (MonthStamp(2013, 1), MonthStamp(2015, 12)))


class TestCompareHypotheses:
    def test_sector_fixtures(self, cd_series, sc_series):
        report = compare_hypotheses(cd_series, sc_series)
        # verdicts are strict amplitude comparisons
        assert report.first_more_seasonal == (
            report.seasonal_amplitude_1 > report.seasonal_amplitude_2)
        assert report.second_more_random == (
            report.random_amplitude_2 > report.random_amplitude_1)
        # the small-cap series is clearly the more random of the two
        assert report.second_more_random
        assert report.random_amplitude_2 == pytest.approx(5.60, abs=0.1)
        assert report.seasonal_amplitude_1 == pytest.approx(1.85, abs=0.1)

    def test_percentage_series_match_the_decomposition(self, cd_series, sc_series):
        report = compare_hypotheses(cd_series, sc_series)
        for series, seasonal, random in (
                (cd_series, report.seasonal_pct_1, report.random_pct_1),
                (sc_series, report.seasonal_pct_2, report.random_pct_2)):
            dec = decompose_additive(series)
            assert seasonal == component_percentage(series, dec.seasonal)
            assert random == component_percentage(series, dec.random)

    def test_identical_series_tie_is_false(self, cd_series):
        report = compare_hypotheses(cd_series, cd_series)
        assert not report.first_more_seasonal
        assert not report.second_more_random

    def test_injected_seasonal_dominance(self):
        rng = np.random.default_rng(31)
        noise = rng.normal(0, 5, 60)
        big = [1000 + 10 * ZERO_SUM_PATTERN[t % 12] + noise[t] for t in range(60)]
        small = [1000 + ZERO_SUM_PATTERN[t % 12] + noise[t] for t in range(60)]
        report = compare_hypotheses(make_series("2010-01", big),
                                    make_series("2010-01", small))
        assert report.first_more_seasonal
