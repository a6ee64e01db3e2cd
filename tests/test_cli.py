import contextlib
import csv
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, fresh_python
from indexcast import MonthStamp, arima, make_series, write_values_file
from indexcast.cli import main
from indexcast.evaluate import METHODS
from snapshots.regenerate import SNAPSHOT_DIR

CD = str(DATA_DIR / "consumer_durables_monthly.txt")
SC = str(DATA_DIR / "small_cap_monthly.txt")


def test_import_leaves_scipy_out():
    # only an ARIMA fit needs scipy, so a CLI call that fits no ARIMA model
    # must not pay for it
    check = "import sys, indexcast.cli; sys.exit('scipy' in sys.modules)"
    assert fresh_python(check).returncode == 0


def test_arima_forecast_loads_no_scipy_signal():
    # method IV fits through scipy's C filter alone: the whole run, output
    # included, never imports scipy.signal (nor scipy.optimize and
    # scipy.stats, which it would bring)
    script = ("import sys\n"
              "from indexcast.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "if 'scipy.signal' in sys.modules:\n"
              "    sys.exit('scipy.signal was imported')\n"
              "sys.exit(code)\n")
    done = fresh_python(script, "forecast", "--method", "IV", "--input", CD,
                        "--start", "2010-01", "--precision", "full",
                        "--output-format", "csv")
    assert (done.returncode, done.stderr) == (0, "")
    snapshot = SNAPSHOT_DIR / "method_CD_IV.csv"
    assert done.stdout.encode("utf-8") == snapshot.read_bytes()


def test_commands_that_compute_nothing_load_no_numpy(tmp_path):
    # ingest, help and usage errors run in plain Python: the package and
    # the CLI import no model, and neither numpy nor scipy
    daily = tmp_path / "daily.csv"
    daily.write_text("date,value\n2010-01-04,1.5\n2010-02-01,2.5\n")
    script = f"""
import contextlib, io, sys
import indexcast
from indexcast.cli import main
runs = [["ingest", "--input", {CD!r}, "--start", "2010-01"],
        ["ingest", "--format", "daily_csv", "--input", {str(daily)!r}],
        ["--help"], ["forecast", "--method", "I", "--input", {CD!r}, "--horizon", "1"]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(codes, [m for m in ("numpy", "scipy") if m in sys.modules])
"""
    done = fresh_python(script)
    assert (done.stdout, done.stderr) == ("[0, 0, 0, 2] []\n", "")


def test_missing_numpy_is_computation_error():
    # with no numpy, what computes nothing still runs, and a command that
    # computes prints one error line and exits 4, not a traceback
    script = """
import sys
sys.modules["numpy"] = None
from indexcast.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.exit(code)
"""
    ingest = fresh_python(script, "ingest", "--input", CD, "--start", "2010-01")
    assert (ingest.returncode, ingest.stderr) == (0, "ingested 72 months 2010-01..2015-12\n")
    assert fresh_python(script, "--help").returncode == 0
    done = fresh_python(script, "decompose", "--input", CD, "--start", "2010-01")
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("computation error: ")
    assert done.stderr.count("\n") == 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, fmt, text", [
    ("decompose", "values", "# start 2010-01\n100\n# caf\xe9\n"),
    ("stability", "daily_csv", "date,value\n2010-01-04,1\n2010-01-05,2,caf\xe9\n"),
], ids=["decompose", "stability"])
def test_input_that_is_not_utf8_is_a_data_error(capsys, tmp_path, command, fmt,
                                                text):
    path = tmp_path / "latin1"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli(capsys, command, "--input", str(path), "--format", fmt)
    assert (code, out) == (3, "")
    assert err == f"data error: {path} is not UTF-8 text: byte 0xe9 does not decode\n"


@pytest.mark.parametrize("argv, message", [
    (["forecast", "--method", "I", "--input", "missing", "--train-end", "x"],
     "argument --train-end: expected YYYY-MM, got 'x'"),
    # a daily CSV reads no start month, and the flag is still checked
    (["ingest", "--format", "daily_csv", "--input", "missing", "--start", "2010-13"],
     "argument --start: month must be in 1..12, got 13"),
    (["stability", "--input", "missing", "--window-b", "2010-01"],
     "argument --window-b: expected YYYY-MM:YYYY-MM, got '2010-01'"),
    (["stability", "--input", "missing", "--window-b", "2010-01:2010-13"],
     "argument --window-b: month must be in 1..12, got 13"),
    (["compare", "--format", "daily_csv", "--input", "missing",
      "--input2", "missing", "--start2", "x"],
     "argument --start2: expected YYYY-MM, got 'x'"),
    (["forecast", "--method", "I", "--input", "missing", "--train-end", "2014-x"],
     "argument --train-end: expected YYYY-MM, got '2014-x'"),
    (["stability", "--input", "missing", "--window-b", "2010-01:2011-1x"],
     "argument --window-b: expected YYYY-MM, got '2011-1x'"),
    (["forecast", "--method", "I", "--input", "missing", "--horizon", "1"],
     "--horizon must be at least 2 (the error summary needs two months) "
     "and 12 for method III, got 1"),
    (["forecast", "--method", "I", "--input", "missing", "--horizon", "0"],
     "--horizon must be at least 2 (the error summary needs two months) "
     "and 12 for method III, got 0"),
    (["forecast", "--method", "III", "--input", "missing", "--horizon", "6"],
     "--horizon must be at least 2 (the error summary needs two months) "
     "and 12 for method III, got 6"),
], ids=["train_end", "daily_start", "window_b", "window_b_month", "start2",
        "train_end_not_numeric", "window_b_not_numeric", "horizon",
        "horizon_zero", "horizon_method_iii"])
def test_bad_flag_is_refused_before_any_input_is_opened(capsys, tmp_path, argv,
                                                        message):
    # the input does not exist: reading it would be an io error, exit 3
    argv = [str(tmp_path / a) if a == "missing" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"\nindexcast {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["stability", "--input", CD],
     f"{CD} names no start month; give --start YYYY-MM or a "
     "'# start YYYY-MM' line"),
], ids=["missing_start"])
def test_usage_error_names_its_subcommand(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: indexcast {argv[0]} [-h] --input INPUT")
    assert err.endswith(f"\nindexcast {argv[0]}: error: {message}\n")


_TABLE_COMMANDS = [["decompose"], ["forecast", "--method", "I"], ["stability"]]


@pytest.mark.parametrize("precision", ["display", "full"])
@pytest.mark.parametrize("argv", [
    *[[*command, "--output-format", fmt] for command in _TABLE_COMMANDS
      for fmt in ("text", "csv", "markdown")],
    ["compare", "--input2", SC],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith(("-", "/"))))
def test_out_file_holds_what_stdout_prints(capsys, tmp_path, argv, precision):
    argv = [*argv, "--input", CD, "--start", "2010-01", "--precision", precision]
    target = tmp_path / "out.txt"
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == stdout.encode("utf-8")


class TestIngest:
    def test_daily_csv_to_values_round_trip(self, tmp_path, capsys):
        daily = tmp_path / "daily.csv"
        daily.write_text("date,value\n"
                         "2010-01-04,10.125\n2010-01-05,20.5\n2010-01-06,30.0\n"
                         "2010-02-01,40.25\n")
        out = tmp_path / "monthly.txt"
        code, _, err = run_cli(capsys, "ingest", "--input", str(daily),
                               "--format", "daily_csv", "--out", str(out),
                               "--precision", "full")
        assert code == 0
        assert "ingested 2 months 2010-01..2010-02" in err
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        # bit-exact round trip through the values format
        assert [float(l) for l in lines] == [(10.125 + 20.5 + 30.0) / 3, 40.25]
        code2, out2, _ = run_cli(capsys, "decompose", "--input", str(out),
                                 "--start", "2010-01")
        assert code2 == 4  # two months cannot be decomposed

    @pytest.mark.parametrize("rows, code, message", [
        ("2010-01-04,1\n2010-03-01,2\n", 3, "data error: no observations in 2010-02"),
        # finite values whose mean is finite but whose sum overflows
        ("2010-01-04,1e308\n2010-01-05,1e308\n", 4,
         "computation error: mean of 2010-01 is not finite"),
    ], ids=["gap", "overflow"])
    def test_daily_csv_month_errors(self, tmp_path, capsys, rows, code, message):
        daily = tmp_path / "daily.csv"
        daily.write_text("date,value\n" + rows)
        got, out, err = run_cli(capsys, "ingest", "--input", str(daily),
                                "--format", "daily_csv")
        assert (got, out) == (code, "")
        assert err.startswith(message)

    def test_values_passthrough(self, capsys):
        code, out, err = run_cli(capsys, "ingest", "--input", CD,
                                 "--start", "2010-01")
        assert code == 0
        assert "ingested 72 months 2010-01..2015-12" in err

    def test_start_conflicting_with_header_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "monthly.txt"
        code, *_ = run_cli(capsys, "ingest", "--input", CD, "--start", "2010-01",
                           "--out", str(out))
        assert code == 0
        code, _, err = run_cli(capsys, "decompose", "--input", str(out),
                               "--start", "2011-01")
        assert code == 3
        assert "2011-01" in err

    @pytest.mark.parametrize("precision", ["display", "full"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=30))
    def test_stdout_equals_out_file(self, precision, values):
        with tempfile.TemporaryDirectory() as tmp:
            source, target = Path(tmp) / "in.txt", Path(tmp) / "out.txt"
            write_values_file(source, make_series("2010-01", values))
            argv = ["ingest", "--input", str(source), "--start", "2010-01",
                    "--precision", precision]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0
                assert main(argv + ["--out", str(target)]) == 0
            assert target.read_bytes() == stdout.getvalue().encode("utf-8")

    def test_missing_start_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", CD])
        assert exc.value.code == 2

    def test_missing_start_message_names_both_ways(self, capsys):
        # the fixture's comments name the month in words only
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--input", CD])
        assert exc.value.code == 2
        assert (f"{CD} names no start month; give --start YYYY-MM or a "
                "'# start YYYY-MM' line") in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["ingest", "--input", CD, "--start", "2010-13"], "--start"),
        (["forecast", "--input", CD, "--start", "2010-01", "--method", "I",
          "--train-end", "x"], "--train-end"),
        (["stability", "--input", CD, "--start", "2010-01",
          "--window-a", "2010-01"], "--window-a"),
    ], ids=["start", "train_end", "window_a"])
    def test_bad_month_is_usage_error_naming_the_flag(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: argument {flag}: " in capsys.readouterr().err

    def test_empty_daily_csv_is_data_error(self, capsys, tmp_path):
        empty = tmp_path / "daily.csv"
        empty.write_bytes(b"")
        code, out, err = run_cli(capsys, "ingest", "--input", str(empty),
                                 "--format", "daily_csv")
        assert (code, out) == (3, "")
        assert err == f"data error: {empty} is empty\n"

    def test_over_long_cell_is_data_error(self, capsys, tmp_path):
        daily = tmp_path / "big.csv"
        daily.write_text("date,value\n2010-01-04,1\n2010-01-05," + "9" * 131_073)
        code, out, err = run_cli(capsys, "ingest", "--input", str(daily),
                                 "--format", "daily_csv")
        assert (code, out) == (3, "")
        assert err == (f"data error: {daily}:3: "
                       "field larger than field limit (131072)\n")

    def test_output_format_is_usage_error(self, capsys):
        # ingest writes a values file, not a table
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--input", CD, "--start", "2010-01",
                  "--output-format", "csv"])
        assert exc.value.code == 2


class TestDecompose:
    def test_csv_matches_library(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "decompose", "--input", CD,
                               "--start", "2010-01", "--output-format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 73
        assert rows[7][2:] == ["5084", "5248", "53", "-216"]

    def test_plot_written_and_deterministic(self, tmp_path, capsys):
        plot_a = tmp_path / "a.svg"
        plot_b = tmp_path / "b.svg"
        for target in (plot_a, plot_b):
            code, *_ = run_cli(capsys, "decompose", "--input", CD,
                               "--start", "2010-01", "--out",
                               str(tmp_path / "table.txt"), "--plot", str(target))
            assert code == 0
        assert plot_a.read_bytes() == plot_b.read_bytes()
        assert plot_a.read_text().count("<polyline") >= 4

    def test_unreadable_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decompose", "--input",
                               str(tmp_path / "nope.txt"), "--start", "2010-01")
        assert code == 3

    def test_malformed_line_reports_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("100\nquarterly\n102\n")
        code, _, err = run_cli(capsys, "decompose", "--input", str(bad),
                               "--start", "2010-01")
        assert code == 3
        assert ":2:" in err

    def test_short_series_is_computation_error(self, capsys, tmp_path):
        small = tmp_path / "small.txt"
        small.write_text("\n".join(str(100 + i) for i in range(18)) + "\n")
        code, _, err = run_cli(capsys, "decompose", "--input", str(small),
                               "--start", "2010-01")
        assert code == 4


class TestForecast:
    def test_method_one_table_layout(self, capsys):
        code, out, _ = run_cli(capsys, "forecast", "--method", "I",
                               "--input", CD, "--start", "2010-01",
                               "--train-end", "2014-12", "--horizon", "12",
                               "--output-format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "month,actual,forecast,ape"
        assert len(lines) == 14  # 12 rows + header + summary footer
        assert lines[1].startswith("2015-01,10027,")
        assert lines[-1].startswith("# method I:")

    def test_horizon_one_is_usage_error(self, capsys):
        # one month gives one error, and the summary needs two
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--method", "I", "--input", CD,
                  "--start", "2010-01", "--horizon", "1"])
        assert exc.value.code == 2
        assert "--horizon must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--horizon", "6"],
                                       ["--train-end", "2014-12", "--horizon", "3"]])
    def test_method_three_needs_horizon_twelve(self, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--method", "III", "--input", CD,
                  "--start", "2010-01", *extra])
        assert exc.value.code == 2
        assert "12 for method III, got" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["I", "II", "IV", "V"])
    @pytest.mark.filterwarnings("error")
    def test_overflow_is_computation_error(self, method, capsys, tmp_path):
        # the sums of squares overflow; stderr holds the error line alone,
        # with no numpy warning before it
        huge = tmp_path / "huge.txt"
        huge.write_text("".join(f"{1e200 * (1.0 + 0.01 * (t % 7))!r}\n"
                                for t in range(72)))
        code, _, err = run_cli(capsys, "forecast", "--method", method,
                               "--input", str(huge), "--start", "2010-01")
        assert code == 4
        assert err.startswith("computation error")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["I", "II"])
    @pytest.mark.filterwarnings("error")
    def test_start_state_overflow_prints_one_line(self, method, capsys,
                                                  tmp_path):
        # the least squares line through the first two years' trend sums
        # past the float range: one error line, no numpy warning before it
        huge = tmp_path / "huge.txt"
        huge.write_text("".join(f"{1e308 * (1.0 + 0.01 * (t % 7))!r}\n"
                                for t in range(37)))
        code, out, err = run_cli(capsys, "forecast", "--method", method,
                                 "--input", str(huge), "--start", "2010-01")
        assert (code, out) == (4, "")
        assert err == ("computation error: one-step sum of squares is not "
                       "finite (nan); the series overflows\n")

    @pytest.mark.parametrize("method", ["I", "II"])
    def test_zero_actual_names_its_month(self, method, capsys, tmp_path,
                                         cd_series):
        # a percentage error divides by the actual value of 2015-03
        values = list(cd_series.values)
        values[cd_series.index_of(MonthStamp(2015, 3))] = 0.0
        path = tmp_path / "zero.txt"
        write_values_file(path, make_series("2010-01", values))
        code, out, err = run_cli(capsys, "forecast", "--method", method,
                                 "--input", str(path), "--start", "2010-01")
        assert (code, out) == (4, "")
        assert err == "computation error: actual value is zero at 2015-03\n"

    @pytest.mark.parametrize("method", ["IV", "V"])
    def test_missing_scipy_is_computation_error(self, method, capsys,
                                                monkeypatch):
        # the loader, uncached, finds no scipy: one error line and exit 4,
        # not a traceback
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, *args: (
            None if name.startswith("scipy") else find_spec(name, *args)))
        monkeypatch.delitem(sys.modules, "scipy.signal._sigtools", raising=False)
        monkeypatch.setattr(arima, "_load_linear_filter",
                            arima._load_linear_filter.__wrapped__)
        code, out, err = run_cli(capsys, "forecast", "--method", method,
                                 "--input", CD, "--start", "2010-01")
        assert (code, out) == (4, "")
        assert err == ("computation error: ARIMA fits need scipy: "
                       "scipy.signal._sigtools was not found\n")

    @pytest.mark.parametrize("method", list(METHODS))
    @pytest.mark.parametrize("sector, path", [("CD", CD), ("SC", SC)],
                             ids=["CD", "SC"])
    def test_full_precision_csv_matches_snapshot(self, sector, path, method,
                                                 capsys):
        code, out, _ = run_cli(capsys, "forecast", "--method", method,
                               "--input", path, "--start", "2010-01",
                               "--precision", "full", "--output-format", "csv")
        assert code == 0
        snapshot = SNAPSHOT_DIR / f"method_{sector}_{method}.csv"
        assert out.encode("utf-8") == snapshot.read_bytes()

    def test_method_three_too_short_names_the_window(self, capsys):
        # 36 training months leave a 24-month trend, one short of the 25
        # that the Holt-Winters fit needs
        code, out, err = run_cli(capsys, "forecast", "--method", "III",
                                 "--input", CD, "--start", "2010-01",
                                 "--train-end", "2012-12")
        assert (code, out) == (4, "")
        assert err == ("computation error: method III needs at least 37 "
                       "training months, whose trend has the 25 that "
                       "Holt-Winters needs; got 36 months with a 24-month "
                       "trend\n")

    def test_method_three_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "forecast", "--method", "III",
                               "--input", CD, "--start", "2010-01",
                               "--output-format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("2014-07,8243,")
        assert lines[-1].startswith("# method III:")


class TestStability:
    def test_default_windows_give_36_rows(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--input", CD,
                               "--start", "2010-01", "--output-format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 37
        assert rows[1][:2] == ["2011", "7"]
        assert rows[-1][:2] == ["2014", "6"]

    def test_identical_windows_zero_column(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--input", CD,
                               "--start", "2010-01",
                               "--window-a", "2010-01:2014-12",
                               "--window-b", "2010-01:2014-12",
                               "--output-format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert all(float(r[-1]) == 0.0 for r in rows)

    def test_small_cap_has_both_signs(self, capsys):
        code, out, _ = run_cli(capsys, "stability", "--input", SC,
                               "--start", "2010-01", "--output-format", "csv")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        signs = {float(r[-1]) > 0 for r in rows}
        assert signs == {True, False}

    @pytest.mark.parametrize("months, code", [(36, 4), (37, 0)])
    def test_default_windows_need_37_months(self, capsys, tmp_path, cd_series,
                                            months, code):
        source = tmp_path / "short.txt"
        write_values_file(source, make_series("2010-01",
                                              cd_series.values[:months]))
        result, out, err = run_cli(capsys, "stability", "--input", str(source),
                                   "--start", "2010-01",
                                   "--output-format", "csv")
        assert result == code
        if code:
            assert err == ("computation error: the default windows need at "
                           "least 37 months, got 36\n")
        else:
            assert len(list(csv.reader(io.StringIO(out)))) == 2  # one row

    def test_ingested_file_gives_its_own_start_month(self, capsys, tmp_path):
        # ingest writes a '# start' line, so its output needs no --start
        values = tmp_path / "cd.txt"
        code, *_ = run_cli(capsys, "ingest", "--input", CD, "--start", "2010-01",
                           "--out", str(values), "--precision", "full")
        assert code == 0
        argv = ["stability", "--output-format", "csv", "--precision", "full"]
        code, out, _ = run_cli(capsys, *argv, "--input", str(values))
        assert code == 0
        assert out.encode("utf-8") == (SNAPSHOT_DIR / "stability_CD.csv").read_bytes()

    def test_zero_sum_names_its_month(self, capsys, tmp_path):
        path = tmp_path / "zeros.txt"
        write_values_file(path, make_series("2010-01", [0.0] * 48))
        code, out, err = run_cli(capsys, "stability", "--input", str(path))
        assert (code, out) == (4, "")
        assert err == ("computation error: window A's trend plus seasonal "
                       "sum is zero at 2011-07\n")

    def test_no_overlap_is_computation_error(self, capsys):
        code, _, err = run_cli(capsys, "stability", "--input", CD,
                               "--start", "2010-01",
                               "--window-a", "2010-01:2012-06",
                               "--window-b", "2013-01:2015-12")
        assert code == 4


class TestCompare:
    def test_fixture_pair_and_plot(self, capsys, tmp_path):
        plot = tmp_path / "cmp.svg"
        code, out, _ = run_cli(capsys, "compare", "--input", CD,
                               "--input2", SC, "--start", "2010-01",
                               "--plot", str(plot))
        assert code == 0
        assert "series2 more random:   True" in out
        assert plot.exists()
        assert plot.read_text().count("<polyline") >= 2

    @pytest.mark.parametrize("months2", [
        ["--input", "SHORT"],               # 40 months against 72
        ["--input", CD, "--start2", "2011-01"],  # 72 months, a year later
    ])
    def test_plot_needs_inputs_over_the_same_months(self, months2, capsys,
                                                    tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("".join(f"{1000 + t % 12 * 7 + t}\n" for t in range(40)))
        argv = [str(short) if a == "SHORT" else a for a in months2]
        report, plot = tmp_path / "report.txt", tmp_path / "cmp.svg"
        code, _, err = run_cli(capsys, "compare", *argv, "--input2", SC,
                               "--start", "2010-01", "--out", str(report),
                               "--plot", str(plot))
        assert code == 3
        assert "same months" in err
        assert not report.exists() and not plot.exists()
        # without --plot, inputs over different months are compared
        code, out, _ = run_cli(capsys, "compare", *argv, "--input2", SC,
                               "--start", "2010-01")
        assert code == 0
        assert "series2 more random:" in out

    @pytest.mark.filterwarnings("error")
    def test_overflowing_decomposition_is_computation_error(self, capsys,
                                                            tmp_path):
        extremes = tmp_path / "extremes.txt"
        extremes.write_text("".join("1.7e308\n" if t % 2 else "-1.7e308\n"
                                    for t in range(36)))
        for argv in (["decompose"], ["compare", "--input2", CD]):
            code, out, err = run_cli(capsys, *argv, "--input", str(extremes),
                                     "--start", "2010-01")
            assert (code, out) == (4, "")
            assert err.startswith("computation error: seasonal indices")

    def test_each_input_takes_its_start_month_from_its_own_line(
            self, capsys, tmp_path, cd_series, sc_series):
        # a daily CSV needs no month, and the second input's values file
        # names its own (here a year later than the first input's)
        daily = tmp_path / "daily.csv"
        daily.write_text("date,value\n" + "".join(
            f"{2010 + t // 12}-{t % 12 + 1:02d}-01,{v}\n"
            for t, v in enumerate(sc_series.values)))
        shifted = tmp_path / "cd.txt"
        write_values_file(shifted, make_series("2011-01", cd_series.values))
        code, out, _ = run_cli(capsys, "compare", "--input", str(daily),
                               "--format", "daily_csv", "--input2", str(shifted),
                               "--format2", "values", "--precision", "full")
        assert code == 0
        _, expected, _ = run_cli(capsys, "compare", "--input", SC,
                                 "--input2", CD, "--start", "2010-01",
                                 "--start2", "2011-01", "--precision", "full")
        assert out == expected
        # without its line, the second input's month is missing
        bare = tmp_path / "bare.txt"
        bare.write_text("".join(f"{v!r}\n" for v in cd_series.values))
        for first, second, flag in ((shifted, bare, "--start2"),
                                    (bare, shifted, "--start")):
            with pytest.raises(SystemExit) as exc:
                main(["compare", "--input", str(first), "--input2", str(second)])
            assert exc.value.code == 2
            assert (f"{bare} names no start month; give {flag} YYYY-MM or a "
                    "'# start YYYY-MM' line") in capsys.readouterr().err

    @pytest.mark.parametrize("starts, flag", [
        (["--start", "2010-01", "--start2", "2010-13"], "--start2"),
        (["--start", "2010-13"], "--start"),
    ], ids=["start2", "start"])
    def test_bad_start_month_names_its_flag(self, capsys, tmp_path, starts, flag):
        # the first input is a daily CSV, so only the second reads a month
        daily = tmp_path / "daily.csv"
        daily.write_text("date,value\n2010-01-04,1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--input", str(daily), "--format", "daily_csv",
                  "--input2", CD, "--format2", "values", *starts])
        assert exc.value.code == 2
        assert (f"error: argument {flag}: month must be in 1..12, got 13"
                in capsys.readouterr().err)

    def test_same_file_twice_gives_false_verdicts(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--input", CD,
                               "--input2", CD, "--start", "2010-01")
        assert code == 0
        assert "series1 more seasonal: False" in out
        assert "series2 more random:   False" in out

    def test_synthetic_seasonal_dominance(self, capsys, tmp_path):
        strong = tmp_path / "strong.txt"
        flat = tmp_path / "flat.txt"
        pattern = [30, -20, 10, -10, 25, -35, 15, -15, 20, -5, -10, -5]
        strong.write_text("\n".join(str(1000 + pattern[t % 12])
                                    for t in range(48)) + "\n")
        flat.write_text("\n".join(str(1000 + pattern[t % 12] / 50)
                                  for t in range(48)) + "\n")
        code, out, _ = run_cli(capsys, "compare", "--input", str(strong),
                               "--input2", str(flat), "--start", "2010-01")
        assert code == 0
        assert "series1 more seasonal: True" in out
