"""The benchmark's hooks and calls must fit the library as it is.

``bench/spans.py`` wraps library functions by module and name when the
benchmark runs with ``--trace 1``, and ``bench/workloads.py`` calls library
functions directly.  A rename, a deletion or a signature change in ``src/``
would only show there; these tests catch it in the suite instead.
"""

import ast
import importlib.util
import inspect
import pathlib

import pytest

import indexcast
from conftest import fresh_python
from indexcast import cli, evaluate

BENCH_DIR = pathlib.Path(__file__).parent.parent / "bench"
SPANS_PATH = BENCH_DIR / "spans.py"


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


def test_workload_imports_load_every_traced_module():
    # the tracer finds its modules in sys.modules when it is installed, and
    # the workloads import only these two; the package loads its submodules
    # lazily, so a module neither of them imports would not be traced
    names = sorted({m for m, _, _ in SPANS.TARGETS} | {m for m, _ in SPANS.OPTIMIZERS})
    script = ("import sys\n"
              "from indexcast import cli, evaluate\n"
              f"print([m for m in {names!r} if 'indexcast.' + m not in sys.modules])\n")
    done = fresh_python(script)
    assert (done.stdout, done.stderr) == ("[]\n", "")


@pytest.mark.parametrize("module_name", [m for m, _ in SPANS.OPTIMIZERS])
def test_every_traced_optimizer_module_has_minimize(module_name):
    module = importlib.import_module(f"indexcast.{module_name}")
    assert callable(getattr(module, "minimize", None))


# every direct library call in bench/workloads.py, with its argument shape;
# the strings stand in for the series, months and windows it passes
WORKLOAD_CALLS = {
    "evaluate.run_fixed_origin": (evaluate.run_fixed_origin,
                                  ("series", "arima", "T", 12), {}),
    "evaluate.run_rolling": (evaluate.run_rolling,
                             ("series", "engine", "a", "b"), {"workers": 1}),
    "evaluate.run_trend_seasonal": (evaluate.run_trend_seasonal,
                                    ("series", "T"), {}),
    "evaluate.structural_stability": (evaluate.structural_stability,
                                      ("series", "wa", "wb"), {}),
    "evaluate.compare_hypotheses": (evaluate.compare_hypotheses, ("a", "b"), {}),
    "indexcast.read_values_file": (indexcast.read_values_file,
                                   ("path", "start"), {}),
    "indexcast.make_series": (indexcast.make_series, ("start", "values"), {}),
    "indexcast.MonthStamp": (indexcast.MonthStamp, (2010, 1), {}),
    "cli.main": (cli.main, (["argv"],), {}),
}


def test_every_workload_call_has_a_shape():
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text(encoding="utf-8"))
    called = {f"{node.func.value.id}.{node.func.attr}"
              for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)
              and node.func.value.id in ("indexcast", "evaluate", "cli")}
    assert called == set(WORKLOAD_CALLS)


@pytest.mark.parametrize("name", list(WORKLOAD_CALLS))
def test_workload_call_binds_to_the_signature(name):
    fn, args, kwargs = WORKLOAD_CALLS[name]
    inspect.signature(fn).bind(*args, **kwargs)
