import datetime
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from indexcast import (DataError, EmptyInputError, GapInSeriesError,
                       IndexcastError, MissingStartError, MonthStamp, ParseError,
                       make_series, read_daily_csv, read_values_file,
                       write_values_file)


class TestValuesFormat:
    def test_round_trip_is_bit_exact(self, tmp_path):
        series = make_series("2010-01", [3890.0, 4006.125, 4150.0078125,
                                         1.0 / 3.0, 2.0 / 7.0] * 5)
        path = tmp_path / "values.txt"
        write_values_file(path, series, full_precision=True)
        back = read_values_file(path, MonthStamp(2010, 1))
        assert back == series

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# header\n\n100\n# middle comment\n200\n\n")
        series = read_values_file(path, MonthStamp(2012, 6))
        assert series.values == (100.0, 200.0)
        assert series.start == MonthStamp(2012, 6)

    def test_start_header_must_name_the_start_month(self, tmp_path):
        path = tmp_path / "values.txt"
        write_values_file(path, make_series("2010-01", [100.0, 200.0]))
        with pytest.raises(DataError, match=":1:"):
            read_values_file(path, MonthStamp(2011, 1))

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40),
           year=st.integers(1000, 9999), month=st.integers(1, 12))
    def test_full_precision_round_trip_property(self, values, year, month):
        start = MonthStamp(year, month)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "values.txt"
            write_values_file(path, make_series(start, values), full_precision=True)
            back = read_values_file(path, start)
        # hex tells -0.0 from 0.0, which == does not
        assert [v.hex() for v in back.values] == [v.hex() for v in values]

    def test_comment_naming_no_month_is_not_a_header(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# start here\n100\n# start 2010-13\n200\n")
        series = read_values_file(path, MonthStamp(2011, 1))
        assert series.values == (100.0, 200.0)

    def test_header_month_need_not_be_zero_padded(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# start 2010-1\n100\n200\n")
        series = read_values_file(path, MonthStamp(2010, 1))
        assert series.values == (100.0, 200.0)
        with pytest.raises(DataError, match=":1:"):
            read_values_file(path, MonthStamp(2010, 2))

    def test_start_header_gives_the_month_when_none_is_given(self, tmp_path):
        path = tmp_path / "values.txt"
        series = make_series("2011-07", [100.0, 200.0])
        write_values_file(path, series)
        assert read_values_file(path) == series

    def test_no_start_and_no_header_is_missing_start(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# start here\n100\n200\n")
        with pytest.raises(MissingStartError, match="names no start month"):
            read_values_file(path)

    def test_later_header_must_name_the_first_headers_month(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# start 2010-01\n100\n# start 2010-02\n200\n")
        with pytest.raises(DataError, match=":3:.*conflicts with start month 2010-01"):
            read_values_file(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("100\n200\noops\n")
        with pytest.raises(ParseError) as exc:
            read_values_file(path, MonthStamp(2010, 1))
        assert exc.value.line_number == 3

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("100\ninf\n")
        with pytest.raises(ParseError):
            read_values_file(path, MonthStamp(2010, 1))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("# nothing but comments\n")
        with pytest.raises(EmptyInputError):
            read_values_file(path, MonthStamp(2010, 1))


class TestDailyCsv:
    def test_parse(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2010-01-04,3875.25\n2010-01-05,3904.75\n")
        series = read_daily_csv(path)
        assert series.start == MonthStamp(2010, 1)
        assert series.values == ((3875.25 + 3904.75) / 2,)

    def test_month_sums_in_file_order(self, tmp_path):
        # left to right, 1e16 + 1.0 rounds back to 1e16: the sum is 1.0, not 2.0
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2010-01-04,1e16\n2010-01-05,1.0\n"
                        "2010-01-06,-1e16\n2010-01-07,1.0\n")
        assert read_daily_csv(path).values == (0.25,)

    @pytest.mark.parametrize("rows, error, message, line_number", [
        ("", EmptyInputError, "^no daily observations$", None),
        ("2010-01-04,1\n2010-03-01,2\n", GapInSeriesError,
         "^no observations in 2010-02$", None),
        # every row is parsed before any month is checked for a gap
        ("2010-01-04,1\n2010-03-01,2\n2010-03-02,x\n", ParseError,
         "not a number: 'x'", 4),
    ], ids=["header_only", "gap", "bad_row_after_gap"])
    def test_error_order(self, tmp_path, rows, error, message, line_number):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n" + rows)
        with pytest.raises(error, match=message) as exc:
            read_daily_csv(path)
        assert getattr(exc.value, "line_number", None) == line_number

    @pytest.mark.parametrize("gap", [False, True], ids=["no_gap", "gap"])
    def test_bad_value_on_the_last_of_4000_rows(self, tmp_path, gap):
        day, lines = datetime.date(2010, 1, 4), ["date,value"]
        while len(lines) < 4000:
            if not (gap and (day.year, day.month) == (2011, 2)):
                lines.append(f"{day.isoformat()},{len(lines)}.5")
            day += datetime.timedelta(days=1)
        path = tmp_path / "daily.csv"
        path.write_text("\n".join(lines) + f"\n{day.isoformat()},x\n")
        with pytest.raises(ParseError, match="not a number: 'x'") as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 4001

    def test_empty_file(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_bytes(b"")
        with pytest.raises(EmptyInputError, match="is empty"):
            read_daily_csv(path)

    def test_blank_row_in_the_middle_is_skipped(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2010-01-04,1\n\n   \n2010-01-05,3\n")
        assert read_daily_csv(path).values == (2.0,)

    def test_one_column_row_names_its_line(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n2010-01-04,1\n2010-01-05\n")
        with pytest.raises(ParseError, match="expected 2 columns") as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("day,close\n2010-01-04,1\n")
        with pytest.raises(ParseError) as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 1

    def test_bad_date_and_bad_value(self, tmp_path):
        path = tmp_path / "daily.csv"
        path.write_text("date,value\n04/01/2010,1\n")
        with pytest.raises(ParseError) as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 2
        path.write_text("date,value\n2010-01-04,one\n")
        with pytest.raises(ParseError):
            read_daily_csv(path)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_rejected_with_line_number(self, tmp_path, text):
        path = tmp_path / "daily.csv"
        path.write_text(f"date,value\n2010-01-04,1\n2010-01-05,{text}\n")
        with pytest.raises(ParseError, match="non-finite value") as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 3


@pytest.mark.parametrize("text, read", [
    ("# start 2010-01\n100\n200.5\n",
     lambda path: read_values_file(path, MonthStamp(2010, 1))),
    ("date,value\n2010-01-04,3875.25\n2010-02-01,3904.75\n", read_daily_csv),
], ids=["values", "daily_csv"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, text, read):
    # spreadsheet programs start a UTF-8 file with U+FEFF
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read(marked) == read(plain)


@pytest.mark.parametrize("text, read", [
    ("# start 2010-01\n100\n# caf\xe9\n200.5\n",
     lambda path: read_values_file(path, MonthStamp(2010, 1))),
    ("date,value\n2010-01-04,3875.25\n2010-02-01,3904.75,caf\xe9\n", read_daily_csv),
], ids=["values", "daily_csv"])
def test_bytes_that_are_not_utf8_are_a_data_error(tmp_path, text, read):
    path = tmp_path / "latin1"
    path.write_bytes(text.encode("latin-1"))
    message = f"{path} is not UTF-8 text: byte 0xe9 does not decode"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$") as exc:
        read(path)
    # the CLI reports a ValueError as a computation error, exit 4
    assert not isinstance(exc.value, ValueError)


# cells no reader may accept, as (column, text); column None drops the value
BAD_CELLS = [(0, "2010-13-01"), (0, "04/01/2010"), (0, ""), (1, "x"), (1, ""),
             (1, "nan"), (1, "-inf"), (1, "1e999"), (None, None)]


@st.composite
def daily_csv_files(draw):
    """Bytes of a daily CSV whose rows switch back and forth between three to
    five consecutive months, with blank rows, quoted and padded cells, a
    third column and an optional BOM; maybe one bad cell.

    Returns (bytes, line number of the bad cell or None).
    """
    first = draw(st.integers(1990 * 12, 2030 * 12))
    months = [divmod(first + k, 12) for k in range(draw(st.integers(3, 5)))]
    values = st.one_of(st.floats(-1e17, 1e17),
                       st.floats(allow_nan=False, allow_infinity=False))
    ks = list(range(len(months))) + draw(st.lists(st.integers(0, len(months) - 1),
                                                  max_size=30))
    rows = [(k, draw(st.integers(1, 28)), draw(values)) for k in ks]
    rows = draw(st.permutations(rows))
    third = draw(st.booleans())
    cells = []
    for k, d, value in rows:
        year, month0 = months[k]
        row = [datetime.date(year, month0 + 1, d).isoformat(), repr(value)]
        if draw(st.booleans()):
            row[0] = f" {row[0]} "
        if draw(st.booleans()):
            row[1] = f" {row[1]} "
        if third:
            row.append(draw(st.sampled_from(["", "x", "a,b", "1.5"])))
        cells.append(row)
    bad = draw(st.none() | st.tuples(st.integers(0, len(cells) - 1),
                                     st.sampled_from(BAD_CELLS)))
    if bad is not None:
        i, (column, text) = bad
        if column is None:
            del cells[i][1:]
        else:
            cells[i][column] = text
    lines = ["date,value,note" if third else "date,value"]
    bad_line = None
    for i, row in enumerate(cells):
        for blank in draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=2)):
            lines.append(blank)
        if bad is not None and i == bad[0]:
            bad_line = len(lines) + 1
        quote = draw(st.booleans())
        lines.append(",".join(f'"{c}"' if quote or "," in c else c for c in row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + newline.join(lines) + newline).encode("utf-8"), bad_line


def _outcome(read, path):
    """Start month and hex of each mean, or the error's type, text and line."""
    try:
        start, means = read(path)
    except IndexcastError as exc:
        return type(exc), str(exc), getattr(exc, "line_number", None)
    return start, [v.hex() for v in means]


def _library(path):
    series = read_daily_csv(path)
    return (series.start.year, series.start.month), series.values


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(daily_csv_files())
def test_daily_csv_matches_the_reference_reader(case):
    data, bad_line = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "daily.csv"
        path.write_bytes(data)
        got = _outcome(_library, path)
        assert got == _outcome(oracles.daily_csv_monthly_means, path)
    if bad_line is not None:
        assert got[0] is ParseError and got[2] == bad_line
