"""Deterministic SVG line charts, no rendering dependencies.

Identical inputs produce byte-identical output: coordinates are formatted
with fixed precision and there are no timestamps or generated ids.  Panels
stack vertically; a panel may hold several named lines, and None values
split a line into segments.  The x coordinates are formatted once per
chart, since every panel and line shares them, and each segment's points
in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

WIDTH = 880
PANEL_HEIGHT = 190
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 34
MARGIN_BOTTOM = 30
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e")


@dataclass(frozen=True)
class Line:
    label: str
    values: Sequence[float | None]


@dataclass(frozen=True)
class Panel:
    title: str
    lines: tuple[Line, ...]


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _runs(values):
    """``(start, stop)`` of each run of values that are not None, in order."""
    if None not in values:
        return [(0, len(values))] if len(values) else []
    runs, start = [], None
    for i, v in enumerate(values):
        if v is None:
            if start is not None:
                runs.append((start, i))
            start = None
        elif start is None:
            start = i
    if start is not None:
        runs.append((start, len(values)))
    return runs


def render_chart(panels: Sequence[Panel], x_labels: Sequence[str],
                 title: str) -> str:
    """Render stacked line-chart panels to an SVG document string, with
    `title` above them and `x_labels[i]` under every few points."""
    if not panels:
        raise ValueError("no panels to render")
    n_points = max((len(line.values) for panel in panels for line in panel.lines),
                   default=0)  # no line value at all: the first panel raises below
    height = MARGIN_TOP + PANEL_HEIGHT * len(panels) + MARGIN_BOTTOM
    plot_left = MARGIN_LEFT
    plot_right = WIDTH - MARGIN_RIGHT

    # every line and panel shares the x coordinates: format them once
    if n_points == 1:
        xs = [f"{(plot_left + plot_right) / 2.0:.2f}"]
    else:
        span_x, last = plot_right - plot_left, n_points - 1
        xs = [f"{plot_left + i * span_x / last:.2f}" for i in range(n_points)]

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{height}" viewBox="0 0 {WIDTH} {height}">',
           '<rect width="100%" height="100%" fill="#ffffff"/>',
           f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
           f'font-size="16" font-family="sans-serif">{_escape(title)}</text>']
    for pi, panel in enumerate(panels):
        top = MARGIN_TOP + pi * PANEL_HEIGHT + 18
        bottom = MARGIN_TOP + (pi + 1) * PANEL_HEIGHT - 14
        defined = [v for line in panel.lines for v in line.values if v is not None]
        if not defined:
            raise ValueError(f"panel {panel.title!r} has no defined value")
        lo, hi = min(defined), max(defined)
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad

        span_px, span_v = bottom - top, hi - lo

        def y_px(v):
            return bottom - (v - lo) * span_px / span_v

        out.append(f'<text x="{plot_left}" y="{top - 5}" font-size="12" '
                   f'font-family="sans-serif">{_escape(panel.title)}</text>')
        out.append(f'<rect x="{plot_left}" y="{top}" width="{plot_right - plot_left}" '
                   f'height="{bottom - top}" fill="none" stroke="#999999"/>')
        for frac in (0.0, 0.5, 1.0):
            v = lo + frac * (hi - lo)
            y = y_px(v)
            out.append(f'<line x1="{plot_left}" y1="{y:.2f}" x2="{plot_right}" '
                       f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
            out.append(f'<text x="{plot_left - 6}" y="{y + 4:.2f}" text-anchor="end" '
                       f'font-size="10" font-family="sans-serif">{v:.0f}</text>')
        for li, line in enumerate(panel.lines):
            color = COLORS[li % len(COLORS)]
            values = line.values
            for start, stop in _runs(values):
                if stop - start == 1:
                    out.append(f'<circle cx="{xs[start]}" cy="{y_px(values[start]):.2f}" '
                               f'r="2" fill="{color}"/>')
                    continue
                points = " ".join([f"{x},{bottom - (v - lo) * span_px / span_v:.2f}"
                                   for x, v in zip(xs[start:stop], values[start:stop])])
                out.append(f'<polyline fill="none" stroke="{color}" '
                           f'stroke-width="1.5" points="{points}"/>')
            if len(panel.lines) > 1:
                lx = plot_left + 8 + 150 * li
                out.append(f'<line x1="{lx}" y1="{top + 10}" x2="{lx + 18}" '
                           f'y2="{top + 10}" stroke="{color}" stroke-width="2"/>')
                out.append(f'<text x="{lx + 22}" y="{top + 14}" font-size="10" '
                           f'font-family="sans-serif">{_escape(line.label)}</text>')
    for i in range(0, n_points, max(1, n_points // 8)):
        out.append(f'<text x="{xs[i]}" y="{height - 10}" '
                   f'text-anchor="middle" font-size="10" '
                   f'font-family="sans-serif">{_escape(x_labels[i])}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
