"""Full-precision outputs pinned byte for byte against ``tests/snapshots/``.

A refactor that should not change results must pass unchanged; a deliberate
change regenerates the files with ``tests/snapshots/regenerate.py``.
"""

from snapshots.regenerate import SNAPSHOT_DIR, render_snapshots


def _first_difference(name: str, old: bytes, new: bytes) -> str | None:
    """Where `new` first departs from `old`, line by line; None if equal."""
    if old == new:
        return None
    a, b = old.splitlines(keepends=True), new.splitlines(keepends=True)
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
             min(len(a), len(b)))
    at = lambda lines: lines[i] if i < len(lines) else b"<end of file>"
    return f"{name} line {i + 1}: snapshot {at(a)!r}, now {at(b)!r}"


def test_renders_match_the_snapshots(cd_series, sc_series, method_reports):
    rendered = render_snapshots(cd_series, sc_series, method_reports)
    on_disk = [p.name for p in SNAPSHOT_DIR.iterdir()
               if p.suffix in (".csv", ".txt")]
    assert sorted(on_disk) == sorted(rendered)
    moved = [_first_difference(name, (SNAPSHOT_DIR / name).read_bytes(),
                               text.encode("utf-8"))
             for name, text in rendered.items()]
    moved = [m for m in moved if m]
    assert not moved, "\n".join(
        moved + ["after a deliberate change, run tests/snapshots/regenerate.py"])
