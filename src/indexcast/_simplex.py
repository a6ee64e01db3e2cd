"""Bounded Nelder-Mead simplex on plain Python floats.

A step-for-step copy of scipy 1.17's ``_minimize_neldermead`` without the
adaptive option (Nelder & Mead 1965; Lagarias et al. 1998): the same start
simplex, bound clipping, step order, evaluation budget, convergence test
and result fields, so given ``bounds=(low, high)`` it returns bit for bit
what ``scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
bounds=[(low, high)] * len(x0), options=...)`` returns.  scipy runs each
step as numpy calls on arrays of one to eleven elements, where the call
overhead outweighs the arithmetic; here every vertex is a list of floats.
Both model fits call it directly.  It is named ``minimize`` because the
benchmark's tracer (``bench/spans.py``) wraps the ``minimize`` attribute
of ``indexcast.arima`` and ``indexcast.holtwinters`` to count evaluations
and unconverged runs.

Vertex order.  scipy re-sorts the vertices with ``np.argsort`` after every
step.  When the values are strictly increasing in some order, that order is
the only one ``argsort`` can return, so ``_sorted`` tries Python's
``sorted`` first and calls ``np.argsort`` only on a tie, a +-0.0 pair or a
NaN, where numpy's kernel decides the order.  A step that does not shrink
changes only the worst vertex, so after a strict order the new value is
placed by bisection among the other n, and the full sort runs only when it
is not strictly between its neighbours.  While the order is strict the
``fatol`` test reduces to the spread between the best and worst values.

Clipping.  Both fits bound every coordinate by the same (low, high) pair,
so ``minimize`` takes one pair and compares each coordinate with two
local floats.  Each trial point is clipped as ``np.clip`` clips it in
scipy: from two coordinates on, a NaN stays NaN and -0.0 at a +0.0 lower
bound becomes +0.0.  With one coordinate numpy takes its scalar-operand
loop, which keeps the -0.0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import reduce
from operator import add, lt
from types import SimpleNamespace

import numpy as np

_NONZDELT = 0.05  # start-simplex step, relative, for a nonzero coordinate
_ZDELT = 0.00025  # start-simplex step for a zero coordinate


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a step."""


def _sorted(sim, fsim):
    """The vertices and their values in the order of ``np.argsort(fsim)``.

    Also returns whether the values are strictly increasing in that order.
    Only then is the order unique; among equal values numpy's order depends
    on the sort kernel it picked for the CPU, and scipy's centroid sums the
    rows in that order.
    """
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    strict = all(map(lt, values, values[1:]))
    if not strict:
        order = np.argsort(np.array(fsim)).tolist()
        values = [fsim[i] for i in order]
    return [sim[i] for i in order], values, strict


def _placed_worst(sim, fsim):
    """Move the last vertex to its place among the others, whose values
    strictly increase; False, with nothing moved, unless its value lands
    strictly between its neighbours' (so a tie or a NaN is refused).
    """
    n = len(fsim) - 1
    # bisect_left leaves every value before k below the new one
    k = bisect_left(fsim, fsim[-1], 0, n)
    if k < n and not fsim[-1] < fsim[k]:
        return False
    sim.insert(k, sim.pop())
    fsim.insert(k, fsim.pop())
    return True


def minimize(fun, x0, *, bounds, maxfev, xatol=1e-4, fatol=1e-4):
    """Minimize ``fun`` from ``x0``; the options are scipy's Nelder-Mead ones.

    ``bounds`` is one float (low, high) pair that bounds every coordinate;
    an infinite end is no bound.
    ``maxfev`` is the only budget: scipy given only maxfev caps no iterations.
    Any other option (``adaptive``, ``initial_simplex``, a misspelt name)
    raises TypeError.  ``fun`` receives each trial point as a list of floats
    and must not modify it.  The result has scipy's field names: the best
    vertex ``x`` as a list of floats, ``fun``, ``nfev``, ``nit``, ``success``.
    """
    n = len(x0)
    low, high = bounds

    if n == 1:
        def clip(x):
            # numpy's scalar-operand loop, which scipy's one-coordinate
            # bounds take: -0.0 at a +0.0 lower bound stays -0.0
            v = low if x[0] < low else x[0]
            return [high if v > high else v]
    else:
        floor = low if low < high else high

        def clip(x):
            # np.clip's comparisons in its order: a NaN stays NaN, and -0.0
            # clipped at a +0.0 lower bound becomes +0.0
            return [v if v != v else (v if v < high else high) if v > low
                    else floor for v in x]

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
    sim = [clip([2 * high - v if v > high else v for v in y]) for y in sim]

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts twice here, and argsort may swap ties
        sim, fsim, strict = _sorted(sim, fsim)

    iterations = 1
    while nfev < maxfev:
        doshrink = False
        try:
            best = sim[0]
            if strict:
                # rounding is monotone, so over strictly increasing values
                # the largest difference is the worst value's, inf included
                fclose = fsim[-1] - fsim[0] <= fatol
            else:  # all(), not max(): a NaN difference must fail the test
                fclose = all(abs(fsim[0] - fy) <= fatol for fy in fsim[1:])
            # both tests are pure, so the cheaper one goes first
            if fclose and all(abs(v - b) <= xatol
                              for y in sim[1:] for v, b in zip(y, best)):
                break
            # the centroid sums as numpy's column reduction does: row by
            # row, starting from +0.0
            xbar = [reduce(add, col, 0.0) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr = clip([2 * c - w for c, w in zip(xbar, worst)])
            fxr = f(xr)
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
        # a step that does not shrink changes only the worst vertex
        if doshrink or not strict or not _placed_worst(sim, fsim):
            sim, fsim, strict = _sorted(sim, fsim)

    # np.min, not min(): a NaN value must propagate to fun
    return SimpleNamespace(x=sim[0], fun=float(np.min(fsim)), nfev=nfev,
                           nit=iterations, success=nfev < maxfev)
