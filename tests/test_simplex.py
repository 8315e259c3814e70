"""The float minimiser of cir_ldp._simplex against scipy's, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize

from cir_ldp._simplex import minimize_bounded

INF = float("inf")
NAN = float("nan")


def _hex(values):
    return [float(v).hex() for v in values]


def _counted(fn):
    calls = []

    def wrapped(v):
        calls.append(v)
        return fn(v)

    return wrapped, calls


_BOUNDED_OBJECTIVES = {
    "bowl": lambda x: (x - 0.3) ** 2 + 0.5 * (x - 0.3) ** 3,
    "kink": lambda x: abs(x - 0.3),
    # The minimum sits on the edge of an +inf plateau, as on the boundary
    # of a rate function's domain.
    "inf-plateau": lambda x: INF if x > 0.3 else (x - 0.9) ** 2,
    # NaN compares false: the search never accepts a point there.
    "nan-region": lambda x: NAN if x < 0.3 else (x + 0.2) ** 2,
    "constant": lambda x: 1.5,
    "oscillating": lambda x: math.sin(3.7e4 * x) + 0.1 * x,
}


def _scipy_bounded(fn, lo, hi, xatol):
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    with np.errstate(invalid="ignore"):
        res = optimize.minimize_scalar(
            counted, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
        )
    return res, len(calls)


@pytest.mark.parametrize("name", list(_BOUNDED_OBJECTIVES))
def test_bounded_matches_scipy_bit_for_bit(name):
    fn = _BOUNDED_OBJECTIVES[name]
    for width in (1e-9, 1e-6, 1e-3, 0.1, 3.0):
        for xatol in (1e-11, 1e-10):
            lo, hi = 0.3 - 0.4 * width, 0.3 + 0.6 * width
            res, nfev = _scipy_bounded(fn, lo, hi, xatol)
            wrapped, calls = _counted(fn)
            fun, x = minimize_bounded(wrapped, lo, hi, xatol=xatol)
            assert _hex([x, fun]) == _hex([res.x, res.fun]), (width, xatol)
            assert len(calls) == nfev


def test_bounded_stops_at_500_calls_as_scipy():
    # With xatol = 0 the bracket around a kink at 0 shrinks towards 0
    # without ever meeting the tolerance, so the call cap ends the search.
    fn = abs
    res, nfev = _scipy_bounded(fn, -1.0, 2.0, 0.0)
    assert nfev == 500 and res.status == 1
    wrapped, calls = _counted(fn)
    fun, x = minimize_bounded(wrapped, -1.0, 2.0, xatol=0.0)
    assert _hex([x, fun]) == _hex([res.x, res.fun])
    assert len(calls) == 500
