"""The float minimisers of cir_ldp._simplex against scipy's, bit for bit."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import optimize

from cir_ldp import ProcessParams, lambda_star
from cir_ldp._simplex import minimize_bounded, nelder_mead

INF = float("inf")
NAN = float("nan")

#: (xatol, fatol, maxfev) of the inf-sup searches at rates' two special
#: points, the library's one use; and of the 3-D switching-surface search and
#: the 4-D polish that the numeric Legendre transform once ran, kept as the
#: 3-D and 4-D parity settings.
_RATES, _SURFACE, _POLISH = (1e-7, 1e-9, 400), (1e-10, 1e-12, 2000), (1e-9, 1e-13, 4000)


def _quadratic(v):
    # A smooth, coupled bowl in any dimension.
    q = 0.5 * v[0] * v[-1]
    for k, vk in enumerate(v):
        q += (k + 1.0) * (vk - 0.3 * k) ** 2
    return q


def _rejecting(v):
    # Like _infsup_objective: +inf outside x >= 0, t <= 0, with the
    # bowl's centre outside, so the minimum sits on the rejection edge.
    x, t = v[0], v[1]
    if x < 0.0 or t > 0.0:
        return INF
    q = (x + 0.2) ** 2 + (t - 0.1) ** 2 + x * t
    for vk in v[2:]:
        q += (vk - 0.5) ** 2
    return q


def _symmetric(v):
    # Invariant under coordinate swaps: from a start with equal coordinates
    # every moved vertex of the initial simplex ties with the others.
    q = 0.0
    for vk in v:
        q += (vk - 0.2) ** 2
    return q + 0.1 * q * q


def _terraced(v):
    # Flat terraces: reflected and contracted points often tie, and most
    # iterations shrink.
    q = 0.0
    for k, vk in enumerate(v):
        q += (k + 1.0) * (vk - 0.1) ** 2
    return math.floor(4.0 * q)


def _shrinking(v):
    # From (1, 1) the first reflection and contraction land in the rejected
    # region, so the first iteration shrinks, and both shrunk vertices beat
    # the best one.
    x, y = v
    if y < 0.99 or (x > 1.01 and y > 1.01):
        return INF
    return 4.5 * (x - 1.017) ** 2 + 1.5 * (y - 1.018) ** 2


def _infsup_objective(alpha, beta):
    # lambda_star at (a, b) = (4, -1) on the 2-D (x, t) constraint set of
    # (alpha, beta), +inf outside x >= 0, t <= 0: an objective of the
    # library's own cost and shape.  rate_I_infsup searches only the set's
    # two faces x = 0 and t = 0, each in one dimension.
    params = ProcessParams(4.0, -1.0)

    def objective(v):
        x, t = v
        if x < 0.0 or t > 0.0:
            return INF
        return lambda_star(params, x, (x * x - alpha) / beta, (t * t + beta) / (2.0 - alpha), t)

    return objective


class _StableArgsortNumpy:
    # numpy with a stable argsort.  scipy sorts the simplex with np.argsort,
    # whose default kind is stable for arrays this small on most builds (an
    # insertion sort) but not on builds that dispatch it to AVX-512, where
    # 4 or 5 tied values can come out in another order.
    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(a, *args, **kwargs):
        return np.argsort(a, kind="stable")


def _scipy_nm(monkeypatch, fn, x0, xatol, fatol, maxfev):
    scipy_optimize = pytest.importorskip("scipy.optimize._optimize")
    monkeypatch.setattr(scipy_optimize, "np", _StableArgsortNumpy())
    with np.errstate(invalid="ignore"):
        return optimize.minimize(
            lambda v: fn(tuple(v.tolist())),
            np.array(x0, dtype=float),
            method="Nelder-Mead",
            options={"xatol": xatol, "fatol": fatol, "maxfev": maxfev},
        )


def _hex(values):
    return [float(v).hex() for v in values]


_PARITY_CASES = [
    pytest.param(_quadratic, (0.9, -0.4), _RATES, id="quadratic-2d"),
    pytest.param(_quadratic, (0.9, -0.4, 1.2), _SURFACE, id="quadratic-3d"),
    pytest.param(_quadratic, (0.9, -0.4, 1.2, 2.0), _POLISH, id="quadratic-4d"),
    pytest.param(_rejecting, (0.5, -0.5), _RATES, id="rejecting-2d"),
    pytest.param(_rejecting, (0.5, -0.5, 0.4), _SURFACE, id="rejecting-3d"),
    pytest.param(_rejecting, (0.5, -0.5, 0.4, 0.0), _POLISH, id="rejecting-4d"),
    pytest.param(_quadratic, (0.0, 1.0, 0.0), _SURFACE, id="zero-start-3d"),
    pytest.param(_rejecting, (0.0, -0.5), _RATES, id="zero-start-rejecting-2d"),
    pytest.param(_symmetric, (1.0, 1.0), _RATES, id="ties-2d"),
    pytest.param(_symmetric, (1.0, 1.0, 1.0), _SURFACE, id="ties-3d"),
    pytest.param(_symmetric, (1.0, 1.0, 1.0, 1.0), _POLISH, id="ties-4d"),
    pytest.param(_terraced, (1.0, 0.8), _RATES, id="terraced-2d"),
    pytest.param(_terraced, (-1.8, -2.2, 0.5), _RATES, id="terraced-3d"),
    # Two C4 points, one in D1 and one in D3.
    pytest.param(_infsup_objective(-1.0, 1.0), (3.2, -4.8), _RATES, id="infsup-d1-2d"),
    pytest.param(_infsup_objective(3.0, -1.0), (0.25, -0.35), _RATES, id="infsup-d3-2d"),
]


@pytest.mark.parametrize("fn, x0, options", _PARITY_CASES)
def test_matches_scipy_bit_for_bit(monkeypatch, fn, x0, options):
    xatol, fatol, maxfev = options
    res = _scipy_nm(monkeypatch, fn, x0, xatol, fatol, maxfev)
    assert res.status == 0 and res.nfev < maxfev  # converged: no maxfev cut
    fun, x = nelder_mead(fn, x0, xatol=xatol, fatol=fatol, maxfev=maxfev)
    assert _hex([fun]) == _hex([res.fun])
    assert _hex(x) == _hex(res.x)


def _counted(fn):
    calls = []

    def wrapped(v):
        calls.append(v)
        return fn(v)

    return wrapped, calls


@pytest.mark.parametrize("maxfev", [1, 2, 3, 4, 5, 6, 7, 50, 400])
@pytest.mark.parametrize(
    "fn, x0",
    [(_quadratic, (0.9, -0.4, 1.2)), (_rejecting, (0.5, -0.5)), (_shrinking, (1.0, 1.0))],
)
def test_never_exceeds_maxfev(fn, x0, maxfev):
    wrapped, calls = _counted(fn)
    nelder_mead(wrapped, x0, xatol=1e-12, fatol=1e-15, maxfev=maxfev)
    assert len(calls) <= maxfev


def test_all_rejected_runs_to_maxfev():
    # inf - inf is nan, which fails the convergence test as under numpy's max.
    wrapped, calls = _counted(lambda v: INF)
    fun, x = nelder_mead(wrapped, (1.0, 2.0), xatol=1e-7, fatol=1e-9, maxfev=57)
    assert fun == INF and len(calls) == 57


#: (maxfev, fun, x) of scipy 1.17.1 on _shrinking from (1, 1).  The first
#: iteration's shrink evaluates its two vertices as calls 6 and 7: a run with
#: maxfev=6 stops half way through it, with the second vertex moved but not
#: evaluated, and is then sorted.  Older scipy let an iteration run past
#: maxfev, so these are recorded values, not a live comparison.
_SHRINK_CUTS = [
    (5, "0x1.d451fc4c16550p-10", ("0x1.0000000000000p+0", "0x1.0000000000000p+0")),
    (6, "0x1.682f944241bf1p-10", ("0x1.0000000000000p+0", "0x1.0666666666666p+0")),
    (7, "0x1.95cc857f3062ap-11", ("0x1.0666666666666p+0", "0x1.0000000000000p+0")),
]


@pytest.mark.parametrize("maxfev, fun_hex, x_hex", _SHRINK_CUTS)
def test_maxfev_cut_inside_a_shrink_matches_scipy_1_17(maxfev, fun_hex, x_hex):
    fun, x = nelder_mead(_shrinking, (1.0, 1.0), xatol=1e-8, fatol=1e-10, maxfev=maxfev)
    assert fun == float.fromhex(fun_hex)
    assert x == tuple(float.fromhex(h) for h in x_hex)


#: scipy 1.17.1 on _rejecting cut at maxfev before it converges.
_EXHAUSTED_CUTS = [
    (
        (0.5, -0.5),
        (1e-7, 1e-9, 200),
        "0x1.999a3b13c731cp-5",
        ("0x1.6af22c80f9f00p-24", "-0x1.665298fc214b7p-20"),
    ),
    (
        (0.5, -0.5, 0.4),
        _RATES,
        "0x1.7f2c2d8c840fep-4",
        ("0x1.b17713e1a338cp-8", "-0x1.f7326591ffb64p-18", "0x1.677dc6c26f462p-1"),
    ),
    (
        (0.5, -0.5, 0.4, 0.0),
        (1e-9, 1e-13, 400),
        "0x1.2da86a72ab637p-2",
        (
            "0x1.902db04887830p-29",
            "-0x1.e77e5eed38170p-26",
            "0x1.fe8f224ef4b64p-2",
            "0x1.64c4b91e496f2p-8",
        ),
    ),
]


@pytest.mark.parametrize("x0, options, fun_hex, x_hex", _EXHAUSTED_CUTS)
def test_exhausted_run_matches_scipy_1_17(x0, options, fun_hex, x_hex):
    xatol, fatol, maxfev = options
    fun, x = nelder_mead(_rejecting, x0, xatol=xatol, fatol=fatol, maxfev=maxfev)
    assert fun == float.fromhex(fun_hex)
    assert x == tuple(float.fromhex(h) for h in x_hex)


#: scipy 1.17.1 on the inf-sup objective at the C4 point (3, -3), cut at
#: maxfev=400 before it converges.
_EXHAUSTED_INFSUP_CUTS = [
    (
        (3.0, -3.0),
        (0.3, -1.0),
        "0x1.60000000016f8p+0",
        ("0x1.c83dac7164748p-21", "-0x1.2da6cd9b21768p-23"),
    ),
]


@pytest.mark.parametrize("point, x0, fun_hex, x_hex", _EXHAUSTED_INFSUP_CUTS)
def test_exhausted_infsup_run_matches_scipy_1_17(point, x0, fun_hex, x_hex):
    wrapped, calls = _counted(_infsup_objective(*point))
    fun, x = nelder_mead(wrapped, x0, xatol=_RATES[0], fatol=_RATES[1], maxfev=_RATES[2])
    assert len(calls) == _RATES[2]
    assert fun == float.fromhex(fun_hex)
    assert x == tuple(float.fromhex(h) for h in x_hex)


@pytest.mark.parametrize("x0", [(-0.5, 0.5), (0.0, 0.3), (-0.5, 0.5, 0.4, 0.0)])
def test_nan_ranks_as_rejected(x0):
    # The rejected region reads nan instead of +inf: the same run, to the bit.
    # From (0, 0.3) the initial simplex's second vertex is rejected.
    def inf_rejecting(v):
        return _rejecting((v[1], v[0], *v[2:]))

    def nan_rejecting(v):
        value = inf_rejecting(v)
        return NAN if value == INF else value

    xatol, fatol, maxfev = _POLISH
    want = nelder_mead(inf_rejecting, x0, xatol=xatol, fatol=fatol, maxfev=maxfev)
    got = nelder_mead(nan_rejecting, x0, xatol=xatol, fatol=fatol, maxfev=maxfev)
    assert _hex([got[0], *got[1]]) == _hex([want[0], *want[1]])
    assert math.isfinite(got[0])


# ---------------------------------------------------------------------------
# minimize_bounded against minimize_scalar(method="bounded").
# ---------------------------------------------------------------------------

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
