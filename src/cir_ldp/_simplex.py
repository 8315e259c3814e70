"""Nelder-Mead simplex and bounded scalar minimisation on Python floats.

The two functions here repeat scipy 1.17.1's iterations step for step on
Python floats, so they return scipy's values to the bit while the library
imports no scipy.  On the library's 1- and 2-dimensional searches they are
also cheaper: scipy's ``minimize`` spends more time on its own arrays than on
the objective.

``nelder_mead`` is the non-adaptive, unbounded ``method="Nelder-Mead"``:

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
It serves the 2-D inf-sup searches at the two special points of ``rates``.

``minimize_bounded`` is ``minimize_scalar(method="bounded")``, Brent's
golden-section search with parabolic steps on a closed interval.  Its two
numpy idioms keep their NaN behaviour: ``np.sign(v) + (v == 0)`` is +-1, or
NaN for a NaN v (``_sign``), and ``np.maximum`` is NaN when either side is.
"""

from __future__ import annotations

import math
from operator import itemgetter

INF = math.inf

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

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
    x0 = tuple(map(float, x0))
    n = len(x0)
    nfev = 0

    def f(x: tuple) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Exhausted
        nfev += 1
        v = fn(x)
        return INF if v != v else v

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


def _sign(v: float) -> float:
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else math.nan


def minimize_bounded(fn, lo: float, hi: float, *, xatol: float) -> tuple[float, float]:
    """Minimise fn on [lo, hi] with at most 500 calls; return (fun, x) of the best point.

    fn takes a float and returns a float; lo <= hi are finite.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(fn(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = abs(rat)
        if step < tol1 or tol1 != tol1:
            step = tol1
        x = xf + _sign(rat) * step
        fu = float(fn(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx, xf
