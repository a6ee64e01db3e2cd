import importlib.util
import pathlib
import runpy

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "traffic.py"
_spec = importlib.util.spec_from_file_location("traffic", TOOL)
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

SOURCE = '''import sys


@staticmethod
def sign(x):
    """Docstring."""
    if x > 0:
        return "positive"
    elif x < 0:
        return (
            "negative")
    return "zero"


def unused():
    global Y
    try:
        Y = 1
    except ValueError:
        pass
'''


def test_statements_map_to_their_bytecode_lines():
    lines = traffic.statement_lines(SOURCE)
    assert lines[4] == {4, 5}  # decorator and def: the header alone
    assert lines[7] == {7}
    assert lines[10] == {10, 11}  # both lines of the return
    assert lines[16] == set()  # global compiles to nothing


def test_reports_the_statements_that_never_ran(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    with traffic.line_trace(tmp_path) as ran:
        module = runpy.run_path(str(path))
        module["sign"](1)
        module["sign"](0)
    # the elif test ran, its return did not; unused's body never ran, but
    # its global statement has no line to run and its except clause is
    # part of the try statement
    assert traffic.never_ran(SOURCE, ran[str(path)]) == [10, 17, 18, 20]


def test_traces_only_the_directory_given(tmp_path):
    (tmp_path / "inner").mkdir()
    inside, outside = tmp_path / "inner" / "a.py", tmp_path / "b.py"
    for path in (inside, outside):
        path.write_text("x = 1\n")
    with traffic.line_trace(tmp_path / "inner") as ran:
        runpy.run_path(str(inside))
        runpy.run_path(str(outside))
    assert dict(ran) == {str(inside): {1}}
