"""List the statements of the indexcast package that its traffic never runs.

The traffic is what the package is used for: the traced plans of the three
benchmark workloads (``bench/workloads.plan(name, 1, ...)``, each call's
``run`` and then its ``check``), ``indexcast forecast --method I..V`` on
both bundled fixtures through ``cli.main``, and each demo script.  They run
in this process under a ``sys.settrace`` line tracer that follows only the
files of ``src/indexcast``; a statement ran when a line holding its
bytecode ran (a compound statement's header: ``if``, ``for``, ``def`` with
its decorators, ...).  Statements with no bytecode, such as ``global``,
are left out.  The script reads ``bench/`` and writes no bytecode there;
the workloads write their inputs to a temporary directory.  Standard
library only; a run takes about 13 s on a 2-CPU machine.  From the
repository root:

    python3 tools/traffic.py

prints one ``module count: line line ...`` line per module, giving the
first line of each statement that never ran, then ``total count``.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import io
import os
import runpy
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "indexcast"


def _bytecode_lines(code: types.CodeType) -> set[int]:
    """The lines that hold bytecode of `code` or of a code object in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _bytecode_lines(const)
    return lines


def statement_lines(source: str) -> dict[int, set[int]]:
    """Each statement's first line, mapped to the lines holding its bytecode:
    all its lines for a simple statement, the header for a compound one."""
    code = _bytecode_lines(compile(source, "<source>", "exec"))
    statements = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", ())])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            statements.setdefault(first, set()).update(
                set(range(first, last + 1)) & code)
    return statements


def never_ran(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of `source` with bytecode that none of
    the lines in `ran` holds."""
    return sorted(first for first, lines in statement_lines(source).items()
                  if lines and not lines & ran)


@contextlib.contextmanager
def line_trace(directory):
    """Trace the lines run in files under `directory`; yields a dict from
    file name to the set of line numbers that ran."""
    prefix = os.path.join(str(directory), "")
    ran = collections.defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield ran
    finally:
        sys.settrace(previous)


def _run_traffic(workdir: Path) -> None:
    import workloads  # from bench/; imports indexcast, so under the tracer
    from indexcast import cli
    from indexcast.series import METHODS
    for name in ("arima_protocol", "hw_protocol", "cli_io"):
        for unit in workloads.plan(name, 1, ROOT, workdir, True):
            for call in unit:
                call.check(call.run())
    for method in METHODS:
        for fixture in sorted((ROOT / "data").glob("*.txt")):
            argv = ["forecast", "--method", method, "--input", str(fixture),
                    "--start", "2010-01"]
            if cli.main(argv) != 0:
                raise RuntimeError(f"indexcast {' '.join(argv)} failed")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    with tempfile.TemporaryDirectory() as workdir, line_trace(PACKAGE) as ran, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        _run_traffic(Path(workdir))
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = never_ran(path.read_text(encoding="utf-8"), ran[str(path)])
        total += len(lines)
        print(f"{path.stem} {len(lines)}"
              + (": " + " ".join(map(str, lines)) if lines else ""))
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
