"""Bounded scalar minimisation on Python floats.

``minimize_bounded`` is scipy 1.17.1's ``minimize_scalar(method="bounded")``,
Brent's golden-section search with parabolic steps on a closed interval.  It
repeats scipy's iteration step for step on Python floats, so it returns
scipy's values to the bit while the library imports no scipy; on the
library's searches it is also cheaper, as scipy spends more time on its own
arrays than on the objective.  It refines every 1-D search of ``rates``: the
marginal infima and the inf-sup face searches, the 2-D ones at the special
points included.  Its two numpy idioms keep their NaN behaviour:
``np.sign(v) + (v == 0)`` is +-1, or NaN for a NaN v (``_sign``), and
``np.maximum`` is NaN when either side is.
"""

from __future__ import annotations

import math

_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


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
