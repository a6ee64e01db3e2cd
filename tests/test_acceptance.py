"""Acceptance suite: one test per criterion, printing a line per check.

One check is known to fail on the bundled fixtures and is left red on
purpose; the analysis lives in the decisions ledger and README:

* criterion 8 verdict (i): the small-cap fixture has the larger mean
  absolute seasonal percentage (1.97% vs 1.85%), so the published claim
  does not hold under the stated metric.

Criterion 5's anchor check passes on both fixtures because order selection
is the stepwise search whose picks match the paper's tables: on the
small-cap window it selects the published (1,1,0).  An exhaustive search
of the same 72 CSS candidates under ``select_order``'s rule would select
(0,1,4) without drift, whose AICc (729.69) is 2.39 below the anchor's
(732.08), so the check fails under a grid search.  The six candidates
with a lower AICc still did not converge, so the rule rejects them: among
them (3,1,2), at 722.63 with an MA coefficient at the 0.99 bound, and
(5,1,3) with drift, the lowest at 713.12.
"""

import math

import numpy as np
import pytest

import golden_tables as g
import oracles
from indexcast import (ArimaOrder, MonthStamp, compare_hypotheses,
                       decompose_additive, fit_arima,
                       fit_holt_winters, forecast_arima, forecast_hw,
                       make_series, structural_stability,
                       absolute_percentage_error)
from indexcast.arima import _integrate
from indexcast.evaluate import _summarize_errors

WINDOW_A = (MonthStamp(2010, 1), MonthStamp(2014, 12))
WINDOW_B = (MonthStamp(2011, 1), MonthStamp(2015, 12))

# published row contradicts its own aggregate-trend-seasonal identity
# (6500 - 6361 - 88 = 51, printed 518); checked against the identity value
MISPRINT_RANDOM_CELLS = {("CD", 2012, 5): 51.0}
# printed error incompatible with the row's own printed pair
# (|11445 - 11578| / 11578 = 1.1487, printed 1.16)
MISPRINT_ERROR_CELLS = {("SC", "II", 8)}

METHOD_TABLES = {
    ("CD", "I"): g.CD_METHOD_I, ("SC", "I"): g.SC_METHOD_I,
    ("CD", "II"): g.CD_METHOD_II, ("SC", "II"): g.SC_METHOD_II,
    ("CD", "IV"): g.CD_METHOD_IV, ("SC", "IV"): g.SC_METHOD_IV,
    ("CD", "V"): g.CD_METHOD_V, ("SC", "V"): g.SC_METHOD_V,
}

BANDS = {
    ("CD", "I"): (7.58, 3.0), ("CD", "II"): (4.55, 2.5),
    ("CD", "III"): (8.38, 5.0), ("CD", "IV"): (8.46, 3.0),
    ("CD", "V"): (3.59, 2.5),
    ("SC", "I"): (10.62, 4.0), ("SC", "II"): (5.36, 2.5),
    ("SC", "III"): (15.50, 6.0), ("SC", "IV"): (2.37, 2.0),
    ("SC", "V"): (3.13, 2.0),
}

ANCHOR_ORDERS = {"CD": (0, 1), "SC": (1, 0)}  # (p, q) at d=1


def record(label, ok, detail=""):
    import conftest
    line = (f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
            + (f" ({detail})" if detail else ""))
    conftest.ACCEPTANCE_LOG.append(line)
    print(line)
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="session")
def fixtures(cd_series, sc_series):
    return {"CD": cd_series, "SC": sc_series}


@pytest.fixture(scope="session")
def decompositions(fixtures):
    return {k: decompose_additive(v) for k, v in fixtures.items()}


@pytest.mark.parametrize("sector", ["CD", "SC"])
def test_criterion_1_decomposition_golden_tables(sector, decompositions):
    golden = g.CD_DECOMPOSITION if sector == "CD" else g.SC_DECOMPOSITION
    dec = decompositions[sector]
    n = len(golden)
    worst = 0.0
    for i, (year, month, aggregate, trend, seasonal, random) in enumerate(golden):
        blank_expected = not (6 <= i <= n - 7)
        assert (dec.trend[i] is None) == blank_expected
        assert (dec.random[i] is None) == blank_expected
        assert abs(dec.seasonal[i] - seasonal) <= 1.0
        if blank_expected:
            continue
        assert abs(dec.trend[i] - trend) <= 1.0
        expected_random = MISPRINT_RANDOM_CELLS.get((sector, year, month), random)
        assert abs(dec.random[i] - expected_random) <= 1.0
        worst = max(worst, abs(dec.trend[i] - trend),
                    abs(dec.seasonal[i] - seasonal),
                    abs(dec.random[i] - expected_random))
    if sector == "CD":
        assert dec.trend[6] == pytest.approx(5247.54, abs=0.01)
    record(f"1 decomposition golden table [{sector}]", True,
           f"worst cell deviation {worst:.3f}")


@pytest.mark.parametrize("sector", ["CD", "SC"])
def test_criterion_2_seasonal_zero_sum(sector, decompositions):
    residual = abs(math.fsum(decompositions[sector].seasonal_indices))
    scale = max(abs(v) for v in decompositions[sector].source.values)
    record(f"2 seasonal zero-sum [{sector}]", residual <= 1e-9 * scale,
           f"|sum| = {residual:.2e}")
    if sector == "CD":
        published = [row[4] for row in g.CD_DECOMPOSITION[:12]]
        assert sum(published) == 0  # the published column sums to exactly 0


@pytest.mark.parametrize("sector", ["CD", "SC"])
def test_criterion_3_stability_golden_tables(sector, fixtures):
    golden = g.CD_STABILITY if sector == "CD" else g.SC_STABILITY
    rows = structural_stability(fixtures[sector], WINDOW_A, WINDOW_B)
    assert len(rows) == len(golden) == 36
    worst = 0.0
    for row, ref in zip(rows, golden):
        year, month, _, _, sum_1, _, _, sum_2, variation = ref
        assert row.month == MonthStamp(year, month)
        assert row.trend_a == row.trend_b  # exact equality in every row
        if sector == "SC":
            assert abs(row.variation_pct - variation) <= 0.05
            worst = max(worst, abs(row.variation_pct - variation))
        else:
            # the consumer-durables table prints magnitudes; the sign is
            # recovered from its printed sums
            assert abs(abs(row.variation_pct) - abs(variation)) <= 0.05
            assert (row.variation_pct > 0) == (sum_2 > sum_1)
            worst = max(worst, abs(abs(row.variation_pct) - abs(variation)))
    anchor = rows[0] if sector == "CD" else rows[3]
    if sector == "CD":
        assert anchor.variation_pct == pytest.approx(2.48, abs=0.05)
    else:
        assert anchor.variation_pct == pytest.approx(-4.01, abs=0.05)
    record(f"3 stability golden table [{sector}]", True,
           f"worst variation deviation {worst:.3f}")


def test_criterion_4_metric_reproduction():
    worst_cell = 0.0
    for (sector, method), rows in METHOD_TABLES.items():
        for month, actual, forecast, error in rows:
            ape = absolute_percentage_error(actual, forecast)
            if (sector, method, month) in MISPRINT_ERROR_CELLS:
                assert abs(ape - error) <= 0.02
                continue
            assert abs(ape - error) <= 0.01
            worst_cell = max(worst_cell, abs(ape - error))
    for rows in (g.CD_METHOD_III, g.SC_METHOD_III):
        for row in rows:
            ape = absolute_percentage_error(row[4], row[7])
            assert abs(ape - row[8]) <= 0.01
            worst_cell = max(worst_cell, abs(ape - row[8]))
    for sector, summaries in (("CD", g.CD_ERROR_SUMMARY),
                              ("SC", g.SC_ERROR_SUMMARY)):
        for method, (mn, mx, mean, sd) in summaries.items():
            table = (METHOD_TABLES.get((sector, method))
                     or (g.CD_METHOD_III if sector == "CD" else g.SC_METHOD_III))
            summary = _summarize_errors([row[-1] for row in table])
            assert summary.min == pytest.approx(mn, abs=0.01)
            assert summary.max == pytest.approx(mx, abs=0.01)
            assert summary.mean == pytest.approx(mean, abs=0.01)
            assert summary.sd == pytest.approx(sd, abs=0.01)
    record("4 metric reproduction", True,
           f"worst error-cell deviation {worst_cell:.4f}")


@pytest.mark.parametrize("sector", ["CD", "SC"])
def test_criterion_5_difference_order(sector, window_selections):
    order = window_selections[sector][1].order
    record(f"5 difference order d=1 [{sector}]", order.d == 1,
           f"selected {order}")


@pytest.mark.parametrize("sector", ["CD", "SC"])
def test_criterion_5_anchor_aicc_proximity(sector, window_selections):
    train, model = window_selections[sector]
    order, selected_aicc = model.order, model.aicc
    p, q = ANCHOR_ORDERS[sector]
    anchor_aicc = min(fit_arima(train, ArimaOrder(p, 1, q, drift)).aicc
                      for drift in (False, True))
    delta = anchor_aicc - selected_aicc
    record(f"5 anchor AICc within 2.0 [{sector}]", delta <= 2.0,
           f"anchor ({p},1,{q}) delta {delta:.2f} vs selected {order}")


def _printed_rows_matched(report, table):
    """How many of the report's forecasts round to the printed ones."""
    return sum(round(row.forecast) == printed[2]
               for row, printed in zip(report.rows, table))


def test_criterion_6_printed_forecasts_sc_method_iv(method_reports):
    # stricter than the band: the selected (1,1,0) gives every printed SC-IV
    # forecast to the integer the paper shows
    iv = _printed_rows_matched(method_reports["SC", "IV"], g.SC_METHOD_IV)
    v = _printed_rows_matched(method_reports["SC", "V"], g.SC_METHOD_V)
    record("6 printed forecasts [SC method IV]", iv == len(g.SC_METHOD_IV),
           f"{iv} of 12 rows match; method V, not asserted: {v} of 12")


@pytest.mark.parametrize("sector,method", sorted(BANDS))
def test_criterion_6_forecast_bands(sector, method, method_reports):
    center, width = BANDS[sector, method]
    mean = method_reports[sector, method].summary.mean
    record(f"6 mean APE band [{sector} method {method}]",
           abs(mean - center) <= width,
           f"mean {mean:.2f} vs {center}±{width}")


def test_criterion_7a_7b_decomposition_properties():
    rng = np.random.default_rng(20100101)
    for _ in range(100):
        n = int(rng.integers(24, 97))
        start = int(rng.integers(1, 13))
        values = rng.normal(1000, 200, n) + np.linspace(0, rng.uniform(-300, 300), n)
        s = make_series(f"2011-{start:02d}", values)
        dec = decompose_additive(s)
        trend, _, seasonal, random = oracles.decompose(list(values), start - 1)
        for i in range(n):
            if dec.trend[i] is not None:
                assert dec.trend[i] + dec.seasonal[i] + dec.random[i] == \
                    pytest.approx(values[i], abs=1e-9)
                assert dec.trend[i] == pytest.approx(trend[i], abs=1e-9)
                assert dec.random[i] == pytest.approx(random[i], abs=1e-9)
            assert dec.seasonal[i] == pytest.approx(seasonal[i], abs=1e-9)
        shifted = decompose_additive(make_series(f"2011-{start:02d}", values + 100))
        scaled = decompose_additive(make_series(f"2011-{start:02d}", values * 2))
        for i in range(n):
            if dec.trend[i] is not None:
                assert shifted.trend[i] - dec.trend[i] == pytest.approx(100, abs=1e-8)
                assert shifted.random[i] == pytest.approx(dec.random[i], abs=1e-8)
                assert scaled.trend[i] == pytest.approx(2 * dec.trend[i], rel=1e-12)
        for a, b in zip(shifted.seasonal_indices, dec.seasonal_indices):
            assert a == pytest.approx(b, abs=1e-8)
    record("7ab reconstruction/equivariance/oracle on 100 random series", True)


def test_criterion_7c_holt_winters_exact_fits():
    pattern = [40.0, -25.0, 10.0, -5.0, 30.0, -45.0,
               15.0, -20.0, 35.0, -10.0, -15.0, -10.0]
    noiseless = make_series("2010-01", [100 + 5 * t + pattern[t % 12]
                                        for t in range(60)])
    model = fit_holt_winters(noiseless)
    constant = fit_holt_winters(make_series("2010-01", [42.0] * 36))
    flat = all(f == pytest.approx(42.0, abs=1e-9)
               for f in forecast_hw(constant, 18))
    record("7c Holt-Winters exact fits", model.sse <= 1e-3 and flat,
           f"noiseless SSE {model.sse:.2e}")


def test_criterion_7d_random_walk_forecasts():
    flat_series = make_series("2010-01", [50.0 + (t % 3) for t in range(29)] + [77.0])
    flat = fit_arima(flat_series, ArimaOrder(0, 1, 0))
    ok_flat = forecast_arima(flat, 10) == pytest.approx((77.0,) * 10)
    ramp = make_series("2010-01", [10.0 + 4.0 * t for t in range(30)])
    drifted = fit_arima(ramp, ArimaOrder(0, 1, 0, drift=True))
    expected = tuple(ramp.values[-1] + 4.0 * h for h in range(1, 7))
    ok_drift = forecast_arima(drifted, 6) == pytest.approx(expected)
    record("7d random-walk forecasts", ok_flat and ok_drift)


def test_criterion_7e_difference_integrate_round_trip():
    rng = np.random.default_rng(77)
    x = list(rng.normal(0, 25, 50))
    ok = True
    for d in (1, 2):
        diffed = np.diff(x, n=d)
        anchors = [np.diff(x, n=k)[d - 1 - k] for k in range(d)]
        ok = ok and np.allclose(_integrate(diffed, anchors), x[d:], atol=1e-12)
    record("7e difference/integrate round trip", ok)


def test_criterion_7f_identical_windows(fixtures):
    rows = structural_stability(fixtures["CD"], WINDOW_A, WINDOW_A)
    record("7f identical windows zero variation",
           all(r.variation_pct == 0.0 for r in rows))


def test_criterion_8_hypothesis_i(fixtures):
    report = compare_hypotheses(fixtures["CD"], fixtures["SC"])
    record("8 verdict (i) consumer durables more seasonal",
           report.first_more_seasonal,
           f"seasonal amplitudes {report.seasonal_amplitude_1:.3f}% vs "
           f"{report.seasonal_amplitude_2:.3f}%")


def test_criterion_8_hypothesis_ii(fixtures):
    report = compare_hypotheses(fixtures["CD"], fixtures["SC"])
    record("8 verdict (ii) small cap more random",
           report.second_more_random,
           f"random amplitudes {report.random_amplitude_1:.3f}% vs "
           f"{report.random_amplitude_2:.3f}%")
