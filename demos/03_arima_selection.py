"""Automatic ARIMA order selection and a 12-month forecast.

The difference order comes from a stationarity heuristic.  A stepwise
search (Hyndman & Khandakar 2008) then fits (p, q, drift) candidates by
conditional sum of squares, moving from the best so far to a neighbour
with a lower small-sample-corrected AIC until none is lower; on this
window it fits 13 of the 72 candidates.  Selection returns the winning
model as fitted, ready to forecast.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from indexcast import (ArimaOrder, MonthStamp, absolute_percentage_error,
                       choose_difference_order, fit_arima, forecast_arima,
                       read_values_file, select_order, slice_window)

DATA = pathlib.Path(__file__).parent.parent / "data"

series = read_values_file(DATA / "small_cap_monthly.txt", MonthStamp(2010, 1))
train = slice_window(series, MonthStamp(2010, 1), MonthStamp(2014, 12))

print("difference order chosen:", choose_difference_order(train))
model = select_order(train)
print("selected order:", model.order)
print("ar:", model.ar_coeffs, "ma:", model.ma_coeffs)
print("drift:", model.drift_value, "aicc:", model.aicc)
print()

print("a few fixed small orders for comparison (AICc):")
for p, q, drift in [(0, 1, False), (1, 0, False), (0, 0, False), (1, 1, True)]:
    candidate = fit_arima(train, ArimaOrder(p, 1, q, drift))
    print(f"  ({p},1,{q}) drift={drift}: aicc={candidate.aicc:.2f}")
print()

forecasts = forecast_arima(model, 12)
print("month      actual  forecast   error%")
for h, forecast in enumerate(forecasts, start=1):
    month = train.end.offset(h)
    actual = series.values[series.index_of(month)]
    print(f"{month}   {actual:8.0f}  {forecast:8.0f}   "
          f"{absolute_percentage_error(actual, forecast):6.2f}")
