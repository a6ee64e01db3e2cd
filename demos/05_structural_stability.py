"""Check whether the trend+seasonal structure drifts between two windows.

Decomposes 2010-2014 and 2011-2015 independently and compares the
trend+seasonal sums over the overlap (Jul 2011 - Jun 2014).  These are
``structural_stability``'s default windows: all but the last year and all
but the first.  Small signed variations mean the series kept its structure
when the first year of data was swapped for the last one.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from indexcast import MonthStamp, read_values_file, structural_stability

DATA = pathlib.Path(__file__).parent.parent / "data"

for name, filename in [("Consumer Durables", "consumer_durables_monthly.txt"),
                       ("Small Cap", "small_cap_monthly.txt")]:
    series = read_values_file(DATA / filename, MonthStamp(2010, 1))
    rows = structural_stability(series)
    variations = [r.variation_pct for r in rows]
    print(f"=== {name}: {len(rows)} overlap months "
          f"{rows[0].month}..{rows[-1].month}")
    print(f"variation: min {min(variations):+.2f}%  max {max(variations):+.2f}%  "
          f"mean abs {sum(abs(v) for v in variations) / len(variations):.2f}%")
    print("sample rows:")
    for r in rows[::7]:
        print(f"  {r.month}  sum1={r.sum_a:8.1f}  sum2={r.sum_b:8.1f}  "
              f"variation={r.variation_pct:+.2f}%")
    print()
