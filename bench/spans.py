"""In-memory span recorder for the traced benchmark run.

The program has no trace of its own, so the recorder wraps each public
function of the library at every module attribute that refers to it (for
example ``fit_arima`` both in ``indexcast.arima``, where ``select_order``
calls it, and in ``indexcast.evaluate``).  ``minimize`` is wrapped in
``indexcast.arima`` and ``indexcast.holtwinters`` to read ``nfev`` and
``success`` from scipy's result.  Spans are kept in memory with their
parent and request id, and written out when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import sys
import time

# (module, function, span name); the span name's first part is the layer
TARGETS = (
    ("arima", "select_order", "arima.select"),
    ("arima", "fit_arima", "arima.fit"),
    ("arima", "forecast_arima", "arima.forecast"),
    ("holtwinters", "fit_holt_winters", "holtwinters.fit"),
    ("holtwinters", "forecast_hw", "holtwinters.forecast"),
    ("decompose", "decompose_additive", "decompose"),
    ("decompose", "component_percentage", "decompose.percentage"),
    ("evaluate", "run_fixed_origin", "evaluate.fixed_origin"),
    ("evaluate", "run_rolling", "evaluate.rolling"),
    ("evaluate", "run_trend_seasonal", "evaluate.trend_seasonal"),
    ("evaluate", "structural_stability", "evaluate.stability"),
    ("evaluate", "compare_hypotheses", "evaluate.compare"),
    ("series", "aggregate_daily_to_monthly", "series.aggregate"),
    ("series", "slice_window", "series.slice"),
    ("fileio", "read_values_file", "fileio.read"),
    ("fileio", "read_daily_csv", "fileio.read"),
    ("fileio", "write_values_file", "fileio.write"),
    ("render", "render_decomposition", "render"),
    ("render", "render_method_report", "render"),
    ("render", "render_stability", "render"),
    ("render", "render_hypotheses", "render"),
    ("svgchart", "render_chart", "svgchart"),
    ("cli", "main", "cli"),
)
# the scipy optimizer, wrapped only where each model module looks it up
OPTIMIZERS = (("arima", "arima.optimizer"), ("holtwinters", "holtwinters.refine"))
PROTOCOLS = ("fixed_origin", "rolling", "trend_seasonal", "stability", "compare")


class Tracer:
    """Spans as [name, start, end, parent index, request id] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.request = 0
        self._stack: list[int] = []
        self._fitted: set = set()
        self._ape_sum = 0.0

    def _wrap(self, name, fn, before=None, after=None):
        """``before(args)`` sees every call, ``after(args, result)`` each return."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    # counters read at the layer boundaries

    def _count_fit(self, layer, key):
        self.counts[f"{layer}.fit_calls"] += 1
        if key in self._fitted:
            self.counts[f"{layer}.duplicate_fits"] += 1
        else:
            self._fitted.add(key)

    def _before_arima_fit(self, args):
        series, order = args[0], args[1]
        if self._stack and self.spans[self._stack[-1]][0] == "arima.select":
            self.counts["arima.fits_in_select"] += 1
        self._count_fit("arima", ("arima", series.values, order))

    def _before_hw_fit(self, args):
        series = args[0]
        self._count_fit("holtwinters", ("holtwinters", series.start, series.values))

    def _after_optimizer(self, layer):
        def after(args, result):
            self.counts[f"{layer}.nfev"] += int(result.nfev)
            if not result.success:
                self.counts[f"{layer}.unconverged"] += 1
        return after

    def _before_read(self, args):
        self.counts["fileio.bytes_read"] += os.path.getsize(args[0])

    def _after_text(self, layer):
        def after(args, result):
            self.counts[f"{layer}.bytes_out"] += len(result.encode("utf-8"))
        return after

    def _after_report(self, args, result):
        for row in result.rows:
            self.counts["evaluate.ape_rows"] += 1
            self._ape_sum += row.ape

    def _after_exit(self, args, result):
        if result != 0:
            self.counts["cli.nonzero_exits"] += 1

    def _hooks(self, name):
        before = {
            "arima.fit": self._before_arima_fit,
            "holtwinters.fit": self._before_hw_fit,
            "fileio.read": self._before_read,
        }.get(name)
        after = {
            "render": self._after_text("render"),
            "svgchart": self._after_text("svgchart"),
            "evaluate.fixed_origin": self._after_report,
            "evaluate.rolling": self._after_report,
            "evaluate.trend_seasonal": self._after_report,
            "cli": self._after_exit,
        }.get(name)
        return before, after

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at every ``indexcast`` name bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "indexcast" or n.startswith("indexcast.")]
        patched = []
        for module_name, fn_name, span_name in TARGETS:
            original = getattr(sys.modules[f"indexcast.{module_name}"], fn_name)
            wrapper = self._wrap(span_name, original, *self._hooks(span_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module_name, span_name in OPTIMIZERS:
            module = sys.modules[f"indexcast.{module_name}"]
            patched.append((module, "minimize", module.minimize))
            module.minimize = self._wrap(span_name, module.minimize, after=self._after_optimizer(
                span_name.split(".")[0]))
        try:
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def counters(self) -> dict:
        """Work counts; for a given plan and seed they must repeat exactly."""
        out = dict(self.counts)
        for name, _, _, _, _ in self.spans:
            out[f"calls:{name}"] = out.get(f"calls:{name}", 0) + 1
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (inclusive ``_s``, exclusive ``self_s``) and counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = collections.Counter()
        own = collections.Counter()
        calls = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        c = self.counts

        def share(part, whole):
            return part / whole if whole else 0.0

        arima_fits = c["arima.fit_calls"]
        hw_fits = c["holtwinters.fit_calls"]
        m = {
            "arima.select_s": total["arima.select"],
            "arima.select_calls": calls["arima.select"],
            "arima.fit_s": total["arima.fit"],
            "arima.fit_calls": arima_fits,
            "arima.fits_per_select": share(c["arima.fits_in_select"],
                                           calls["arima.select"]),
            "arima.optimizer_s": total["arima.optimizer"],
            "arima.nfev": c["arima.nfev"],
            "arima.nfev_per_fit": share(c["arima.nfev"], arima_fits),
            "arima.forecast_s": total["arima.forecast"],
            "arima.unconverged_share": share(c["arima.unconverged"], arima_fits),
            "arima.duplicate_fit_share": share(c["arima.duplicate_fits"], arima_fits),
            "holtwinters.fit_s": total["holtwinters.fit"],
            "holtwinters.fit_calls": hw_fits,
            "holtwinters.refine_s": total["holtwinters.refine"],
            "holtwinters.refine_nfev": c["holtwinters.nfev"],
            "holtwinters.duplicate_fit_share": share(c["holtwinters.duplicate_fits"],
                                                     hw_fits),
            "decompose.self_s": own["decompose"] + own["decompose.percentage"],
            "decompose.calls": calls["decompose"],
        }
        for protocol in PROTOCOLS:
            m[f"evaluate.{protocol}.self_s"] = own[f"evaluate.{protocol}"]
            m[f"evaluate.{protocol}.calls"] = calls[f"evaluate.{protocol}"]
        m.update({
            "evaluate.ape_mean_pct": share(self._ape_sum, c["evaluate.ape_rows"]),
            "fileio.read_s": total["fileio.read"],
            "fileio.write_s": total["fileio.write"],
            "fileio.bytes_read": c["fileio.bytes_read"],
            "series.aggregate_s": total["series.aggregate"],
            "series.slice_calls": calls["series.slice"],
            "render.s": total["render"],
            "render.bytes_out": c["render.bytes_out"],
            "svgchart.s": total["svgchart"],
            "svgchart.bytes_out": c["svgchart.bytes_out"],
            "cli.self_s": own["cli"],
            "cli.nonzero_exits": c["cli.nonzero_exits"],
        })
        return m

    def write(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "parent": parent, "request": request, "name": name,
                    "start_s": start - origin, "end_s": end - origin}) + "\n")


def import_share(importtime_stderr: str, targets=("scipy.optimize", "scipy.signal"),
                 root="indexcast.cli") -> float:
    """Share of ``root``'s cumulative import time spent in ``targets``.

    Reads ``python -X importtime`` output, which lists each module after
    the modules it imported, indented one step deeper.  A target nested
    under another target is counted once, inside its ancestor.
    """
    pending: list[tuple[int, float]] = []  # (depth, target time in subtree)
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        in_children = 0.0
        while pending and pending[-1][0] > depth:
            in_children += pending.pop()[1]
        name = label.strip()
        if name == root and depth == 0:
            return in_children / int(cumulative)
        pending.append((depth, float(cumulative) if name in targets else in_children))
    return 0.0
