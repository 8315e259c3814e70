"""Nelder-Mead simplex minimisation on Python floats.

The library's simplex searches are 2- to 4-dimensional, where scipy's
``minimize(method="Nelder-Mead")`` spends more time on its own arrays than on
the objective.  ``nelder_mead`` repeats scipy 1.17.1's non-adaptive,
unbounded iteration step for step on tuples of floats, so it returns the same
values to the bit and does not depend on the installed scipy:

* the initial simplex moves each coordinate of x0 by 5 %, or to 0.00025
  where it is zero;
* reflection, expansion and the two contractions form 2 xbar - w,
  3 xbar - 2 w, 1.5 xbar - 0.5 w and 0.5 xbar + 0.5 w, with xbar the
  left-to-right sum of the other vertices divided by N, and a shrink moves
  vertex s to s0 + 0.5 (s - s0);
* the vertices are sorted stably by value after every iteration;
* a call past ``maxfev`` aborts the rest of the iteration, leaving a shrink
  half done, and the simplex is then sorted once more;
* the run stops when every vertex is within ``xatol`` of the best in every
  coordinate and within ``fatol`` of it in value; a NaN difference fails the
  test, as it does under numpy's ``max``.

An objective value of NaN ranks as a rejected point: it is replaced by +inf.
"""

from __future__ import annotations

import math
from operator import itemgetter

INF = math.inf

_VALUE = itemgetter(0)


class _Exhausted(Exception):
    pass


def _converged(verts: list, xatol: float, fatol: float) -> bool:
    f0, x0 = verts[0]
    for fj, xj in verts[1:]:
        if not abs(f0 - fj) <= fatol:
            return False
        for a, b in zip(xj, x0):
            if not abs(a - b) <= xatol:
                return False
    return True


def nelder_mead(fn, x0, *, xatol: float, fatol: float, maxfev: int) -> tuple[float, tuple]:
    """Minimise fn from x0 with at most maxfev calls; return (fun, x) of the best vertex.

    fn takes a tuple of floats and returns a float.
    """
    nfev = 0

    def f(x: tuple) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        v = fn(x)
        return INF if v != v else v

    x0 = tuple(map(float, x0))
    n = len(x0)
    verts = [[INF, x0]]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        verts.append([INF, tuple(y)])
    try:
        for v in verts:
            v[0] = f(v[1])
    except _Exhausted:
        pass
    verts.sort(key=_VALUE)
    while nfev < maxfev and not _converged(verts, xatol, fatol):
        try:
            fw, w = verts[-1]
            xbar = verts[0][1]
            for _, xj in verts[1:-1]:
                xbar = [s + c for s, c in zip(xbar, xj)]
            xbar = [s / n for s in xbar]
            xr = tuple([2 * m - c for m, c in zip(xbar, w)])
            fxr = f(xr)
            if fxr < verts[0][0]:
                xe = tuple([3 * m - 2 * c for m, c in zip(xbar, w)])
                fxe = f(xe)
                verts[-1] = [fxe, xe] if fxe < fxr else [fxr, xr]
            elif fxr < verts[-2][0]:
                verts[-1] = [fxr, xr]
            else:
                if fxr < fw:
                    xc = tuple([1.5 * m - 0.5 * c for m, c in zip(xbar, w)])
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = tuple([0.5 * m + 0.5 * c for m, c in zip(xbar, w)])
                    fxc = f(xc)
                    accept = fxc < fw
                if accept:
                    verts[-1] = [fxc, xc]
                else:
                    # Each vertex moves before its evaluation, so an abort
                    # leaves the next one moved but with its old value.
                    best = verts[0][1]
                    for v in verts[1:]:
                        v[1] = tuple([b + 0.5 * (c - b) for b, c in zip(best, v[1])])
                        v[0] = f(v[1])
        except _Exhausted:
            pass
        verts.sort(key=_VALUE)
    return verts[0][0], verts[0][1]
