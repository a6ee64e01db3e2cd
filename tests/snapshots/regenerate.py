"""Rewrite the tier-1 snapshots in this directory from the current code.

The snapshots are ``--precision full`` renders of every method report, both
fixtures' decompositions and stability tables (the default windows),
and the two-fixture hypothesis comparison; ``tests/test_snapshots.py``
compares them byte for byte.  After a deliberate change of results, run

    PYTHONPATH=src python tests/snapshots/regenerate.py

from the repository root and say in the change which lines moved and why.
"""

import sys
from pathlib import Path

from indexcast import (compare_hypotheses, decompose_additive,
                       read_values_file, structural_stability)
from indexcast.evaluate import METHODS
from indexcast.render import (render_decomposition, render_hypotheses,
                              render_method_report, render_stability)

SNAPSHOT_DIR = Path(__file__).resolve().parent
SECTORS = ("CD", "SC")


def render_snapshots(cd_series, sc_series, method_reports) -> dict[str, str]:
    """Each snapshot's file name and its text, rendered at full precision."""
    out = {f"method_{s}_{m}.csv": render_method_report(
        method_reports[s, m], "csv", "full") for s in SECTORS for m in METHODS}
    for sector, series in zip(SECTORS, (cd_series, sc_series)):
        out[f"decomposition_{sector}.csv"] = render_decomposition(
            decompose_additive(series), "csv", "full")
        out[f"stability_{sector}.csv"] = render_stability(
            structural_stability(series), "csv", "full")
    out["hypotheses.txt"] = render_hypotheses(
        compare_hypotheses(cd_series, sc_series), "full")
    return out


def main():
    sys.path.insert(0, str(SNAPSHOT_DIR.parent))
    from conftest import DATA_DIR, START, run_methods

    cd = read_values_file(DATA_DIR / "consumer_durables_monthly.txt", START)
    sc = read_values_file(DATA_DIR / "small_cap_monthly.txt", START)
    for name, text in render_snapshots(cd, sc, run_methods(cd, sc)).items():
        (SNAPSHOT_DIR / name).write_bytes(text.encode("utf-8"))
        print(f"wrote {name}")


if __name__ == "__main__":
    main()
