import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

# a comment line
def f(x):
    """Function docstring."""
    return (x +
            1)  # a trailing comment leaves its line counted


class C:
    """Class docstring."""
    y = """a string that is
not a docstring"""
'''


def test_counts_lines_with_code_outside_docstrings():
    # def f, both lines of the return, class C, both lines of y
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 6\nb 1\ntotal 7\n"
