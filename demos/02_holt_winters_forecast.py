"""Fit additive Holt-Winters to five years of data and forecast the sixth.

Shows the fixed-origin workflow: train on 2010-2014, forecast all twelve
months of 2015 at once, and compare with what actually happened.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from indexcast import (MonthStamp, absolute_percentage_error,
                       fit_holt_winters, forecast_hw, read_values_file,
                       slice_window)

DATA = pathlib.Path(__file__).parent.parent / "data"

series = read_values_file(DATA / "consumer_durables_monthly.txt",
                          MonthStamp(2010, 1))
train = slice_window(series, MonthStamp(2010, 1), MonthStamp(2014, 12))

model = fit_holt_winters(train)
print("fitted model:")
print(model.params)
print("training one-step SSE:", model.sse)
print()

forecasts = forecast_hw(model, 12)
print("month      actual  forecast   error%")
for h, forecast in enumerate(forecasts, start=1):
    month = train.end.offset(h)
    actual = series.values[series.index_of(month)]
    err = absolute_percentage_error(actual, forecast)
    print(f"{month}   {actual:8.0f}  {forecast:8.0f}   {err:6.2f}")
