"""Smoke test: the demo scripts run to completion and print their report."""

import pathlib
import runpy
import sys

import pytest

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("script,expected", [
    ("01_decompose_sectors.py", "=== Small Cap: 72 months"),
    ("02_holt_winters_forecast.py", "fitted model:"),
    ("03_arima_selection.py", "selected order: ArimaOrder("),
    ("04_method_comparison.py", "lowest mean error: method"),
    ("05_structural_stability.py", "=== Small Cap: 36 overlap months"),
])
def test_demo_runs(script, expected, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # demos prepend src/
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert expected in capsys.readouterr().out
