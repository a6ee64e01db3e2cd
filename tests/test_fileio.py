import datetime
import math
import os
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from indexcast import (DataError, EmptyInputError, GapInSeriesError,
                       IndexcastError, MissingStartError, MonthStamp, ParseError,
                       make_series, read_daily_csv, read_values_file,
                       write_values_file)
from indexcast import fileio
from indexcast.series import _monthly_means


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

    def test_line_number_counts_a_quoted_cells_newline(self, tmp_path):
        # the quoted cell of line 2 ends on line 3, so the bad value is on 4
        path = tmp_path / "daily.csv"
        path.write_text('date,value\n2010-01-04,"1\n"\n2010-01-05,x\n')
        with pytest.raises(ParseError, match="not a number: 'x'") as exc:
            read_daily_csv(path)
        assert exc.value.line_number == 4

    @pytest.mark.parametrize("text, line_number", [
        ("date,value,{big}\n2010-01-04,1\n", 1),
        ("date,value\n2010-01-04,1\n2010-01-05,1,{big}\n", 3),
    ], ids=["header", "row"])
    def test_over_long_cell_is_a_parse_error(self, tmp_path, text, line_number):
        # csv.reader refuses a cell over its field size limit
        path = tmp_path / "daily.csv"
        path.write_text(text.format(big="x" * 131_073))
        with pytest.raises(ParseError, match=r": field larger than field "
                                             r"limit \(131072\)$") as exc:
            read_daily_csv(path)
        assert exc.value.line_number == line_number

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
    third column (its cell may hold a newline) and an optional BOM; maybe
    one bad cell.  About half the files are plain instead: rows sorted by
    date, oldest or newest first, two unquoted and unpadded cells, no blank
    row.

    Returns (bytes, physical line number the bad cell's row ends on, or None).
    """
    plain = draw(st.booleans())

    def maybe():
        return not plain and draw(st.booleans())

    first = draw(st.integers(1990 * 12, 2030 * 12))
    months = [divmod(first + k, 12) for k in range(draw(st.integers(3, 5)))]
    values = st.one_of(st.floats(-1e17, 1e17),
                       st.floats(allow_nan=False, allow_infinity=False))
    ks = list(range(len(months))) + draw(st.lists(st.integers(0, len(months) - 1),
                                                  max_size=30))
    rows = [(k, draw(st.integers(1, 28)), draw(values)) for k in ks]
    rows = (sorted(rows, key=lambda row: row[:2], reverse=draw(st.booleans()))
            if plain else draw(st.permutations(rows)))
    third = maybe()
    cells = []
    for k, d, value in rows:
        year, month0 = months[k]
        row = [datetime.date(year, month0 + 1, d).isoformat(), repr(value)]
        if maybe():
            row[0] = f" {row[0]} "
        if maybe():
            row[1] = f" {row[1]} "
        if third:
            row.append(draw(st.sampled_from(["", "x", "a,b", "1.5", "a\nb"])))
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
        for blank in draw(st.lists(st.sampled_from(["", "   ", "\t"]),
                                   max_size=0 if plain else 2)):
            lines.append(blank)
        quote = maybe()
        lines.append(",".join(f'"{c}"' if quote or "," in c or "\n" in c else c
                              for c in row))
        if bad is not None and i == bad[0]:
            bad_line = sum(line.count("\n") + 1 for line in lines)
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


def _row_loop(path):
    """The row loop alone, from the first byte, without the block pass."""
    months = {}
    with fileio._utf8(path, newline="") as handle:
        fileio._row_months(handle, path, months, 0)
    series = _monthly_means(months)
    return (series.start.year, series.start.month), series.values


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(daily_csv_files())
def test_daily_csv_matches_the_reference_reader(case):
    data, bad_line = case
    # blocks of a few lines: months carry over from block to block, and the
    # row loop may go on after some plain blocks
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(fileio, _FIRST_BLOCK=16, _BLOCK=64):
        path = Path(tmp) / "daily.csv"
        path.write_bytes(data)
        got = _outcome(_library, path)
        assert got == _outcome(oracles.daily_csv_monthly_means, path)
        assert got == _outcome(_row_loop, path)
    if bad_line is not None:
        assert got[0] is ParseError and got[2] == bad_line


@pytest.mark.parametrize("text, outcome", [
    ("2010-01-04,1,2010-01-05\n7\n",
     (ParseError, "expected 2 columns, got ['7']", 3)),
    ("2010-01-04,1\r2010-01-05,3\n", ((2010, 1), [2.0])),
    ("2010-01-04,1\n2010-01-05,\r3\n", (ParseError, "not a number: ''", 3)),
    ("2010-01-04,1\n2010-01-05,35", ((2010, 1), [18.0])),
    ("2010-01-04,1\n2010-01-05,3\n\n", ((2010, 1), [2.0])),
    ("2010-01-04,1\n2010-02-01,2\n2010-01-05,4\n", ((2010, 1), [2.5, 2.0])),
    ("2010-01-04,-0.0\n2010-01-05,-0.0\n", ((2010, 1), [0.0])),
    ("2010-01-04,1\n2010-01-05,0{}1\n".format("0" * 131_071),
     (ParseError, "field larger than field limit (131072)", 3)),
    ("9999-12-30,1\n9999-12-31,3\n", ((9999, 12), [2.0])),
], ids=["two_cells_then_one", "lone_cr", "lone_cr_in_a_cell", "no_final_newline",
        "trailing_blank_line", "month_comes_back", "negative_zeros",
        "over_long_number", "last_month_9999"])
def test_edge_cases_of_the_block_pass(tmp_path, text, outcome):
    # under a third header cell every file takes the row loop
    path = tmp_path / "daily.csv"
    for header in ["date,value\n", "date,value,note\n"]:
        path.write_text(header + text, newline="")
        got = _outcome(_library, path)
        assert got == _outcome(oracles.daily_csv_monthly_means, path)
        if outcome[0] is ParseError:
            assert got[0] is ParseError and got[1].endswith(outcome[1])
            assert got[2] == outcome[2]
        else:
            assert got == (outcome[0], [v.hex() for v in outcome[1]])


def test_bad_value_comes_before_bytes_that_do_not_decode(tmp_path):
    # the bad byte is more than one 32 KB block after the bad value
    path = tmp_path / "daily.csv"
    path.write_bytes(b"date,value\n2010-01-04,x\n" + b"2010-01-05,1\n" * 3000
                     + b"2010-01-06,caf\xe9\n")
    with pytest.raises(ParseError, match="not a number: 'x'") as exc:
        read_daily_csv(path)
    assert exc.value.line_number == 2


def _quote_lines(count=4000):
    """Rows of business days with two-decimal quotes, as the benchmark writes them."""
    rng, day, value = random.Random(1), datetime.date(1999, 3, 1), 2500.0
    lines = []
    while len(lines) < count:
        if day.weekday() < 5:
            value *= math.exp(rng.gauss(0.0002, 0.012))
            lines.append(f"{day.isoformat()},{value:.2f}")
        day += datetime.timedelta(days=1)
    return lines


@pytest.mark.parametrize("newline, order", [("\n", 1), ("\r\n", 1), ("\n", -1)],
                         ids=["lf", "crlf", "newest_first"])
def test_plain_file_does_not_reach_the_row_loop(tmp_path, monkeypatch, newline, order):
    lines = ["date,value"] + _quote_lines()[::order]
    path = tmp_path / "daily.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    expected = _outcome(oracles.daily_csv_monthly_means, path)
    assert len(expected[1]) > 150

    def no_reader(*args, **kwargs):
        raise AssertionError("the row loop read a plain file")

    monkeypatch.setattr(fileio.csv, "reader", no_reader)
    assert _outcome(_library, path) == expected


def _inserted(lines, i, line):
    return lines[:i] + [line] + lines[i:]


@pytest.mark.parametrize("change", [
    lambda lines: lines + [""],
    lambda lines: lines[:-1] + [lines[-1].replace(",", ",x")],
    lambda lines: lines[:-3] + [lines[-2], lines[-3], lines[-1]],
    lambda lines: lines[:-5] + [lines[-5].replace(",", ',"') + '"'] + lines[-4:],
    lambda lines: lines[:-5] + [lines[-5] + ",note"] + lines[-4:],
    lambda lines: _inserted(lines, 3000, ""),
    lambda lines: _inserted(lines, 3000, "2000-02-30,1"),
    lambda lines: _inserted(lines, 3000, "2000-02-03,1{}".format("0" * 131_072)),
], ids=["trailing_blank_line", "bad_last_row", "late_row_out_of_order",
        "late_quoted_cell", "late_third_column", "blank_line_at_3000",
        "bad_date_at_3000", "over_long_cell_at_3000"])
def test_row_loop_goes_on_after_the_plain_blocks(tmp_path, monkeypatch, change):
    path = tmp_path / "daily.csv"
    path.write_text("\n".join(["date,value"] + change(_quote_lines())) + "\n")
    expected = _outcome(_row_loop, path)
    assert expected == _outcome(oracles.daily_csv_monthly_means, path)
    starts = []
    row_months = fileio._row_months

    def recorded(handle, path, months, lines):
        starts.append(lines)
        return row_months(handle, path, months, lines)

    monkeypatch.setattr(fileio, "_row_months", recorded)
    assert _outcome(_library, path) == expected
    assert len(starts) == 1 and starts[0] > 1000  # the plain blocks were not parsed twice


def test_bytes_that_do_not_decode_come_as_in_the_row_loop(tmp_path):
    # the row loop takes over at a blank line; a bad value follows, and a
    # bad byte some rows later, in the same decoding chunk or a later one
    path = tmp_path / "daily.csv"
    kinds = set()
    for gap in range(0, 600, 20):
        lines = ["date,value"] + _quote_lines()
        lines[2600], lines[2700] = "", lines[2700].replace(",", ",x")
        lines[2700 + gap + 1] += "\udce9"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
        got = _outcome(_library, path)
        assert got == _outcome(_row_loop, path)
        kinds.add(got[0])
    assert kinds == {DataError, ParseError}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_pipe_is_read_once():
    # a pipe cannot go back to its first byte for the row loop
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b'date,value\n2010-01-04,1\n2010-01-05,"3"\n')
        os.close(write_end)
        assert read_daily_csv(f"/dev/fd/{read_end}").values == (2.0,)
    finally:
        os.close(read_end)
