"""Host-speed reference for the timed metrics.

The benchmark host shares its cores with other work, and its speed moves
by up to 2x within seconds: on a 2-vCPU Xeon at 2.1 GHz the same
Holt-Winters fit took 21 ms to 46 ms within two minutes, in stretches of
1 to 40 s, with CPU time moving as much as wall time.  A 20 s run cannot
average that out.  So a fixed reference kernel, code of the benchmark and
not of the program, is timed in the same thread every ``INTERVAL_S``
(from a SIGALRM handler, so also inside long calls), and each call's time
is scaled by ``NOMINAL_S`` over the kernel times measured during it.
Times are thereby reported at the host speed at which the kernel takes
``NOMINAL_S``, about the host's fast stretches.  The kernel's own time is
taken out of the call it interrupted.

A reference process on the other vCPU does not work: the two vCPUs slow
each other down, so its speed moved against the workload's.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.005   # kernel time that defines the nominal host speed
INTERVAL_S = 0.2    # kernel period while a timed pass runs


def kernel() -> float:
    """Interpreter loop, float math, dict updates, formatting, small numpy ops."""
    acc = 0.0
    arr = np.linspace(0.0, 1.0, 16)
    table: dict[int, int] = {}
    for i in range(3000):
        acc += math.sqrt(i + 1.0)
        arr = arr * 0.999 + 0.001
        key = i % 61
        table[key] = table.get(key, 0) + len(f"{acc:.3f}")
    return acc + float(arr.sum()) + len(table)


class Sampler:
    """Kernel samples in time order: span, CPU seconds and kernel time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpus: list[float] = []
        self.kernel_s: list[float] = []
        self._sampling = False

    def sample(self, *_signal_args, repeat: int = 1) -> None:
        """Time the kernel ``repeat`` times and keep the median as one sample."""
        if self._sampling:  # a timer tick while the kernel runs
            return
        self._sampling = True
        cpu0, start = time.process_time(), time.perf_counter()
        runs = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        end, cpu1 = time.perf_counter(), time.process_time()
        self.starts.append(start)
        self.ends.append(end)
        self.cpus.append(cpu1 - cpu0)
        self.kernel_s.append(statistics.median(runs))
        self._sampling = False

    @contextlib.contextmanager
    def periodic(self):
        """Sample before, every INTERVAL_S during, and after the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def nominal(self, start: float, end: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of an interval at nominal host speed.

        Uses the samples taken inside the interval, whose own time is
        removed from it; an interval without one uses the samples just
        before and after it.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        inside = range(first, last)
        if inside:
            wall = end - start - sum(self.ends[i] - self.starts[i] for i in inside)
            cpu -= sum(self.cpus[i] for i in inside)
            reference = [self.kernel_s[i] for i in inside]
        else:
            wall = end - start
            around = (first - 1, first) if first < len(self.starts) else (first - 1,)
            reference = [self.kernel_s[i] for i in around]
        factor = NOMINAL_S / statistics.fmean(reference)
        return wall * factor, max(cpu, 0.0) * factor
