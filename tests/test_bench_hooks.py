"""The traced benchmark's hooks must name functions that exist.

``bench/spans.py`` wraps library functions by module and name when the
benchmark runs with ``--trace 1``.  A rename or deletion in ``src/`` would
only show there; these tests catch it in the suite instead.
"""

import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()


@pytest.mark.parametrize("module_name, fn_name", [t[:2] for t in SPANS.TARGETS],
                         ids=[f"{m}.{f}" for m, f, _ in SPANS.TARGETS])
def test_every_traced_target_is_a_callable(module_name, fn_name):
    module = importlib.import_module(f"indexcast.{module_name}")
    assert callable(getattr(module, fn_name, None))


@pytest.mark.parametrize("module_name", [m for m, _ in SPANS.OPTIMIZERS])
def test_every_traced_optimizer_module_has_minimize(module_name):
    module = importlib.import_module(f"indexcast.{module_name}")
    assert callable(getattr(module, "minimize", None))
