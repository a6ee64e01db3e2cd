import pathlib
import shutil
import sys
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from indexcast import MonthStamp, read_values_file, select_order, slice_window

DATA_DIR = pathlib.Path(__file__).parent.parent / "data"
START = MonthStamp(2010, 1)
TRAIN_END = MonthStamp(2014, 12)

# one line per acceptance check, shown by pytest_terminal_summary
ACCEPTANCE_LOG = []


def pytest_configure(config):
    # hypothesis caches the literal constants of the local modules under its
    # home directory, ./.hypothesis by default, while pytest collects (even
    # with database=None); a temporary home keeps them out of the checkout
    config.hypothesis_home = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.hypothesis_home, ignore_errors=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cd_series():
    return read_values_file(DATA_DIR / "consumer_durables_monthly.txt", START)


@pytest.fixture(scope="session")
def sc_series():
    return read_values_file(DATA_DIR / "small_cap_monthly.txt", START)


@pytest.fixture(scope="session")
def window_selections(cd_series, sc_series):
    """(training window, selected model) per sector for 2010-01..2014-12.

    Order selection is the slowest fit in the suite, so every test of the
    fixture-window selections shares this one run per sector.
    """
    out = {}
    for sector, series in (("CD", cd_series), ("SC", sc_series)):
        train = slice_window(series, START, TRAIN_END)
        out[sector] = (train, select_order(train))
    return out


def run_methods(cd_series, sc_series):
    """Every method run on both fixtures, keyed by (sector, method)."""
    from indexcast import run_fixed_origin, run_rolling, run_trend_seasonal

    eval_start, eval_end = MonthStamp(2015, 1), MonthStamp(2015, 12)
    out = {}
    for sector, series in (("CD", cd_series), ("SC", sc_series)):
        out[sector, "I"] = run_fixed_origin(series, "holt_winters", TRAIN_END, 12)
        out[sector, "II"] = run_rolling(series, "holt_winters", eval_start,
                                        eval_end)
        out[sector, "III"] = run_trend_seasonal(series, TRAIN_END)
        out[sector, "IV"] = run_fixed_origin(series, "arima", TRAIN_END, 12)
        out[sector, "V"] = run_rolling(series, "arima", eval_start, eval_end)
    return out


@pytest.fixture(scope="session")
def method_reports(cd_series, sc_series):
    """Every method run on both fixtures, computed once per session.

    Keyed by (sector, method); the rolling ARIMA runs dominate the suite's
    runtime, so everything downstream shares these results.
    """
    return run_methods(cd_series, sc_series)
