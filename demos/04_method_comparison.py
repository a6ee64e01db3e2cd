"""Run all five evaluation protocols on both sectors and rank them.

Method I/II: Holt-Winters with a 12-month / 1-month horizon.
Method III:  Holt-Winters on the decomposed trend plus seasonal indices.
Method IV/V: ARIMA with a 12-month / 1-month horizon (order reselected
every month for method V).

The rolling methods refit for every month of 2015, one month after
another; the whole run takes about a second.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from indexcast import MonthStamp, read_values_file, run_method
from indexcast.evaluate import METHODS

DATA = pathlib.Path(__file__).parent.parent / "data"
TRAIN_END = MonthStamp(2014, 12)


for name, filename in [("Consumer Durables", "consumer_durables_monthly.txt"),
                       ("Small Cap", "small_cap_monthly.txt")]:
    series = read_values_file(DATA / filename, MonthStamp(2010, 1))
    print(f"=== {name}")
    print("method     min     max    mean      sd")
    reports = {m: run_method(series, m, TRAIN_END) for m in METHODS}
    for method, report in reports.items():
        s = report.summary
        print(f"{method:>6}  {s.min:6.2f}  {s.max:6.2f}  {s.mean:6.2f}  {s.sd:6.2f}")
    best = min(reports, key=lambda m: reports[m].summary.mean)
    print(f"lowest mean error: method {best}\n")
