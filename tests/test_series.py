import datetime
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indexcast import (ComputationError, EmptyInputError, GapInSeriesError,
                       MonthStamp, MonthlyTimeSeries, OutOfRangeError,
                       aggregate_daily_to_monthly, make_series, read_daily_csv,
                       slice_window)


def day(y, m, d, v):
    return (datetime.date(y, m, d), v)


class TestMonthStamp:
    def test_ordering_is_year_then_month(self):
        assert MonthStamp(2010, 12) < MonthStamp(2011, 1)
        assert MonthStamp(2010, 3) < MonthStamp(2010, 4)
        assert MonthStamp(2010, 3) == MonthStamp(2010, 3)

    def test_offset_and_distance_round_trip(self):
        base = MonthStamp(2010, 11)
        for k in range(-30, 30):
            assert base.months_until(base.offset(k)) == k
        assert base.offset(2) == MonthStamp(2011, 1)
        assert base.offset(-11) == MonthStamp(2009, 12)

    def test_parse_and_str(self):
        assert MonthStamp.parse("2014-07") == MonthStamp(2014, 7)
        assert str(MonthStamp(2010, 3)) == "2010-03"
        with pytest.raises(ValueError):
            MonthStamp.parse("2014/07")
        # a part that is not a number names the expected form, not int()'s
        with pytest.raises(ValueError, match=r"^expected YYYY-MM, got '2011-1x'$"):
            MonthStamp.parse("2011-1x")
        with pytest.raises(ValueError, match=r"^month must be in 1\.\.12, got 13$"):
            MonthStamp.parse("2010-13")

    def test_month_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MonthStamp(2010, 13)
        with pytest.raises(ValueError):
            MonthStamp(2010, 0)


class TestMonthlyTimeSeries:
    def test_end_and_indexing(self):
        s = make_series("2010-01", range(72))
        assert s.end == MonthStamp(2015, 12)
        assert s.index_of(MonthStamp(2012, 5)) == 28

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(EmptyInputError):
            make_series("2010-01", [])
        with pytest.raises(ValueError):
            make_series("2010-01", [1.0, float("nan")])
        with pytest.raises(ValueError):
            make_series("2010-01", [1.0, float("inf")])

    def test_names_the_first_non_finite_position(self):
        with pytest.raises(ValueError, match="^non-finite value at position 1: nan$"):
            make_series("2010-01", [1.0, float("nan"), 2.0, float("inf")])

    def test_month_indices_wrap(self):
        s = make_series("2010-11", [1, 2, 3, 4])
        assert s.month_indices() == (10, 11, 0, 1)


class TestAggregateDaily:
    def test_monthly_means(self):
        daily = [day(2010, 1, 4, 10), day(2010, 1, 5, 20), day(2010, 1, 6, 30),
                 day(2010, 2, 1, 40)]
        s = aggregate_daily_to_monthly(daily)
        assert s.start == MonthStamp(2010, 1)
        assert s.values == (20.0, 40.0)

    def test_singleton(self):
        s = aggregate_daily_to_monthly([day(2010, 1, 15, 3890)])
        assert s.values == (3890.0,)

    def test_constant_weekdays_year(self):
        daily = []
        d = datetime.date(2010, 1, 1)
        while d.year == 2010:
            if d.weekday() < 5:
                daily.append((d, 7.5))
            d += datetime.timedelta(days=1)
        s = aggregate_daily_to_monthly(daily)
        assert len(s) == 12
        assert all(v == 7.5 for v in s.values)

    def test_empty_and_gap(self):
        with pytest.raises(EmptyInputError):
            aggregate_daily_to_monthly([])
        with pytest.raises(GapInSeriesError):
            aggregate_daily_to_monthly([day(2010, 1, 4, 1), day(2010, 3, 4, 2)])

    def test_permutation_within_month_and_scale(self):
        daily = [day(2010, 1, 4, 10), day(2010, 1, 5, 20), day(2010, 1, 6, 33)]
        forward = aggregate_daily_to_monthly(daily)
        backward = aggregate_daily_to_monthly(list(reversed(daily)))
        assert forward == backward
        scaled = aggregate_daily_to_monthly([(d, 3 * v) for d, v in daily])
        assert scaled.values[0] == pytest.approx(3 * forward.values[0], rel=1e-15)

    def test_month_that_comes_back_resumes_its_sum_in_order(self):
        # January summed left to right: 1e16 + 1.0 rounds back to 1e16, so
        # the sum is 1.0; adding a fresh sum of its second run (-1e16) to the
        # first run's total would give 0.0
        daily = [day(2010, 1, 4, 1e16), day(2010, 2, 1, 5.0), day(2010, 1, 5, 1.0),
                 day(2010, 1, 6, -1e16), day(2010, 1, 7, 1.0)]
        assert aggregate_daily_to_monthly(daily).values == (0.25, 5.0)

    def test_overflowing_month_names_the_month(self):
        # each value is finite and so is the true mean, but the sum is not
        daily = [day(2010, 1, 29, 1.0), day(2010, 2, 4, 1e308), day(2010, 2, 5, 1e308)]
        with pytest.raises(ComputationError, match="mean of 2010-02 is not finite"):
            aggregate_daily_to_monthly(daily)

    def test_first_error_in_month_order_wins(self):
        # January's sum overflows and February has no pair: January is named
        overflow = [day(2010, 1, 4, 1e308), day(2010, 1, 5, 1e308)]
        with pytest.raises(ComputationError, match="^mean of 2010-01 is not finite: inf$"):
            aggregate_daily_to_monthly(overflow + [day(2010, 3, 1, 1.0)])
        # the other way round, the gap in February is named
        with pytest.raises(GapInSeriesError, match="^no observations in 2010-02$"):
            aggregate_daily_to_monthly([day(2010, 1, 4, 1.0)]
                                       + [(d.replace(month=3), v) for d, v in overflow])

    def test_span_length(self):
        daily = [day(2010, 1, 20, 1), day(2010, 2, 3, 2), day(2010, 3, 28, 3)]
        assert len(aggregate_daily_to_monthly(daily)) == 3


@st.composite
def month_hopping_pairs(draw):
    """(date, value) pairs over two to four consecutive months in a drawn
    order, so a month's pairs come back after another month's; magnitudes
    up to 1e17, where the order of a sum shows in its rounding."""
    first = draw(st.integers(1990 * 12, 2030 * 12))
    months = [divmod(first + k, 12) for k in range(draw(st.integers(2, 4)))]
    ks = list(range(len(months))) + draw(st.lists(
        st.integers(0, len(months) - 1), max_size=30))
    pairs = [(datetime.date(months[k][0], months[k][1] + 1, draw(st.integers(1, 28))),
              draw(st.floats(-1e17, 1e17))) for k in ks]
    return draw(st.permutations(pairs))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(month_hopping_pairs())
def test_pairs_api_and_csv_reader_give_the_same_means(pairs):
    # the reader keeps a running total for the current month, the pairs
    # API looks up each pair's month: both sum each month in input order
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "daily.csv"
        path.write_text("date,value\n" + "".join(
            f"{date.isoformat()},{value!r}\n" for date, value in pairs))
        assert aggregate_daily_to_monthly(pairs) == read_daily_csv(path)


class TestSliceWindow:
    def test_five_year_train_window(self, cd_series):
        t = slice_window(cd_series, MonthStamp(2010, 1), MonthStamp(2014, 12))
        assert len(t) == 60
        assert t.values == cd_series.values[:60]

    def test_shifted_window(self, cd_series):
        t = slice_window(cd_series, MonthStamp(2011, 1), MonthStamp(2015, 12))
        assert len(t) == 60
        assert t.values[0] == cd_series.values[12]

    def test_identity_round_trip(self, cd_series):
        assert slice_window(cd_series, cd_series.start, cd_series.end) == cd_series

    def test_out_of_range(self, cd_series):
        with pytest.raises(OutOfRangeError):
            slice_window(cd_series, MonthStamp(2009, 12), MonthStamp(2010, 6))
        with pytest.raises(OutOfRangeError):
            slice_window(cd_series, MonthStamp(2015, 1), MonthStamp(2016, 1))
        with pytest.raises(OutOfRangeError):
            slice_window(cd_series, MonthStamp(2012, 5), MonthStamp(2012, 4))
