"""Bounded Nelder-Mead simplex on plain Python floats.

A step-for-step copy of scipy 1.17's ``_minimize_neldermead`` without the
adaptive option (Nelder & Mead 1965; Lagarias et al. 1998): the same start
simplex, bound clipping, step order, evaluation budget, convergence test
and result fields, so it returns bit for bit what
``scipy.optimize.minimize(fun, x0, method="Nelder-Mead", bounds=...,
options=...)`` returns.  scipy runs each step as numpy calls on arrays of
one to eleven elements, where the call overhead outweighs the arithmetic;
here every vertex is a list of floats.  Both model fits call it directly.
It is named ``minimize`` because the benchmark's tracer (``bench/spans.py``)
wraps the ``minimize`` attribute of ``indexcast.arima`` and
``indexcast.holtwinters`` to count evaluations and unconverged runs.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np

_NONZDELT = 0.05  # start-simplex step, relative, for a nonzero coordinate
_ZDELT = 0.00025  # start-simplex step for a zero coordinate


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a step."""


def _sorted(sim, fsim):
    """The vertices and their values in the order of ``np.argsort(fsim)``.

    numpy's order among equal values depends on the sort kernel it picked
    for the CPU, and scipy's centroid sums the rows in that order.
    """
    order = np.argsort(np.array(fsim)).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, x0, *, bounds, maxfev, xatol=1e-4, fatol=1e-4):
    """Minimize ``fun`` from ``x0``; the options are scipy's Nelder-Mead ones.

    ``bounds`` holds float (low, high) pairs; an infinite end is no bound.
    ``maxfev`` is the only budget: scipy given only maxfev caps no iterations.
    Any other option (``adaptive``, ``initial_simplex``, a misspelt name)
    raises TypeError.  ``fun`` receives each trial point as a list of floats
    and must not modify it.  The result has scipy's field names: the best
    vertex ``x`` as a list of floats, ``fun``, ``nfev``, ``nit``, ``success``.
    """
    n = len(x0)
    lower = [lo for lo, _ in bounds]
    upper = [hi for _, hi in bounds]

    def clip(x):
        # np.clip's comparisons in its order: a NaN stays NaN, and -0.0
        # clipped at a +0.0 lower bound becomes +0.0
        x = [v if v != v or v > lo else lo for v, lo in zip(x, lower)]
        return [v if v != v or v < hi else hi for v, hi in zip(x, upper)]

    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return float(fun(x))  # scipy stores values as float64

    start = clip([float(v) for v in x0])
    sim = [start]
    for k in range(n):
        y = list(start)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    # a start next to the upper bound reflects inward
    sim = [clip([2 * hi - v if v > hi else v for v, hi in zip(y, upper)])
           for y in sim]

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts twice here, and argsort may swap ties
        sim, fsim = _sorted(sim, fsim)

    iterations = 1
    while nfev < maxfev:
        try:
            best = sim[0]
            # all(), not max(): a NaN difference must fail the test.  Both
            # tests are pure, so the cheaper one goes first.
            if (all(abs(fsim[0] - fy) <= fatol for fy in fsim[1:])
                    and all(abs(v - b) <= xatol
                            for y in sim[1:] for v, b in zip(y, best))):
                break
            # the centroid sums as numpy's column reduction does: row by
            # row, starting from +0.0
            xbar = [reduce(add, col, 0.0) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr = clip([2 * c - w for c, w in zip(xbar, worst)])
            fxr = f(xr)
            doshrink = False
            if fxr < fsim[0]:
                xe = clip([3 * c - 2 * w for c, w in zip(xbar, worst)])
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-1]:  # outside contraction
                xc = clip([1.5 * c - 0.5 * w for c, w in zip(xbar, worst)])
                fxc = f(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    doshrink = True
            else:  # inside contraction
                xcc = clip([0.5 * c + 0.5 * w for c, w in zip(xbar, worst)])
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    doshrink = True
            if doshrink:
                for j in range(1, n + 1):
                    sim[j] = clip([b + 0.5 * (v - b)
                                   for b, v in zip(best, sim[j])])
                    fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)

    # np.min, not min(): a NaN value must propagate to fun
    return SimpleNamespace(x=sim[0], fun=float(np.min(fsim)), nfev=nfev,
                           nit=iterations, success=nfev < maxfev)
