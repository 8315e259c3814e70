"""b is a unit of time: the scaling identity checks every leg at a second b.

If X ~ CIR(a, b) from x0, then Y_t = X_{ct}/c is CIR(a, cb) from x0/c, and
Y's record on [0, T] is X's on [0, cT]: sqrt(Y_T/T) is unchanged, S scales by
1/c and Sigma by c, and the MLE gives (alpha, c beta).  So every rate is
covariant,

    I^(a,cb)(alpha, c beta) = c I^(a,b)(alpha, beta), likewise J, K and the
    marginals;
    Lambda*^(a,cb)(x, y/c, c z, sqrt(c) t) = c Lambda*^(a,b)(x, y, z, t);
    Lambda^(a,cb)(c lam, c^2 mu, nu, sqrt(c) gamma) = c Lambda^(a,b)(lam, mu, nu, gamma),

and no closed form enters the identity.  At c = 2 the scaling is exact in
binary, and the closed forms and the sampler keep every bit.  Elsewhere the
gaps are relative to max(1, |value|): near the zero of a rate at (a, b) its
value is a cancellation, and its relative error says nothing.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cir_ldp import (
    ESTIMATORS,
    CgfPoint,
    ProcessParams,
    cgf_limit,
    functionals_from_summary,
    lambda_star,
    legendre_transform_numeric,
    rate_I_infsup,
    rate_I_mle,
    rate_J,
    rate_K,
    rate_marginal,
    simulate_ensemble,
)
from cir_ldp.cgf import NEWTON_GAIN_TOL
from cir_ldp.harness import INFSUP_POINTS, LEGENDRE_QUAD_GRID

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETS = [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)]
SURFACES = {"J": rate_J, "K": rate_K, "I": rate_I_mle}
QUAD = list(itertools.product(*(LEGENDRE_QUAD_GRID[k] for k in "xyzt")))


def _pair(a: float, b: float, c: float) -> tuple[ProcessParams, ProcessParams]:
    return ProcessParams(a, b), ProcessParams(a, c * b)


def _points(b: float):
    """200 seeded (alpha, beta) points, of both signs, with beta in units of |b|."""
    rng = np.random.default_rng(14)
    return rng.uniform(-3.0, 12.0, 200), rng.uniform(-4.0, 2.0, 200) * abs(b)


def _gap(scaled, reference) -> float:
    """Worst |scaled - reference| / max(1, |reference|); equal values (inf too) give 0."""
    scaled, reference = np.asarray(scaled, float), np.asarray(reference, float)
    assert np.array_equal(np.isinf(scaled), np.isinf(reference))
    finite = np.isfinite(reference)
    diff = np.abs(scaled[finite] - reference[finite]) / np.maximum(1.0, np.abs(reference[finite]))
    return float(diff.max(initial=0.0))


def _rates(P: ProcessParams, Q: ProcessParams, c: float, alpha, beta):
    """(Q's value, c times P's value) for the three surfaces and six marginals."""
    for rate in SURFACES.values():
        yield rate(Q, alpha, c * beta), c * rate(P, alpha, beta)
    for m in ("Ja", "Ka", "Ia"):
        yield rate_marginal(Q, m, alpha), c * rate_marginal(P, m, alpha)
    for m in ("Jb", "Kb", "Ib"):
        yield rate_marginal(Q, m, c * beta), c * rate_marginal(P, m, beta)


@pytest.mark.parametrize("a, b", SETS)
def test_closed_forms_keep_their_bits_at_c_2(a, b):
    P, Q = _pair(a, b, 2.0)
    alpha, beta = _points(b)
    for scaled, reference in _rates(P, Q, 2.0, alpha, beta):
        assert np.array_equal(scaled, reference)


@pytest.mark.parametrize("c", [0.37, 7.3])
@pytest.mark.parametrize("a, b", SETS)
def test_closed_forms_scale_at_other_c(a, b, c):
    # Measured worst: 4.8e-15.
    P, Q = _pair(a, b, c)
    alpha, beta = _points(b)
    for scaled, reference in _rates(P, Q, c, alpha, beta):
        assert _gap(scaled, reference) <= 5e-14


@pytest.mark.parametrize("a, b", SETS)
def test_cgf_limit_keeps_its_bits_at_c_2(a, b):
    # Inside the domain at every set: lam > 0 and gamma < 0 together, then each alone.
    P, Q = _pair(a, b, 2.0)
    for lam, mu, nu, gamma in [(0.1, -0.1, -0.1, -0.1), (0.2, 0.02, 0.02, 0.0),
                               (0.0, -0.3, 0.01, -0.4)]:
        value = cgf_limit(P, CgfPoint(lam, mu, nu, gamma))
        assert math.isfinite(value)
        scaled = cgf_limit(Q, CgfPoint(2.0 * lam, 4.0 * mu, nu, math.sqrt(2.0) * gamma))
        assert scaled == 2.0 * value


@pytest.mark.parametrize("a, b", SETS)
def test_numeric_legendre_transform_scales(a, b):
    # C3's quad grid; measured worst 3.2e-15.
    P, Q = _pair(a, b, 2.0)
    r = math.sqrt(2.0)
    scaled = [legendre_transform_numeric(Q, x, y / 2.0, 2.0 * z, r * t) for x, y, z, t in QUAD]
    reference = [2.0 * legendre_transform_numeric(P, *q) for q in QUAD]
    assert _gap(scaled, reference) <= 2e-14


@pytest.mark.parametrize("a, b", SETS)
def test_lambda_star_scales_to_its_newton_tolerance(a, b):
    # lambda_star stops once the predicted Newton gain is below
    # NEWTON_GAIN_TOL, so each side may sit about that far below the
    # supremum, and P's shortfall is doubled (CHANGES.md FOUND on
    # NEWTON_GAIN_TOL).  Measured worst: 2.0e-13 absolute.
    P, Q = _pair(a, b, 2.0)
    r = math.sqrt(2.0)
    for x, y, z, t in QUAD:
        scaled = lambda_star(Q, x, y / 2.0, 2.0 * z, r * t)
        assert abs(scaled - 2.0 * lambda_star(P, x, y, z, t)) <= 3.0 * NEWTON_GAIN_TOL


def test_lambda_star_newton_stop_point():
    # The FOUND point of NEWTON_GAIN_TOL: 8.9e-14 relative at (3, -2).
    P, Q = _pair(3.0, -2.0, 2.0)
    scaled = lambda_star(Q, 0.3, 2.0, 2.6, math.sqrt(2.0) * -0.2)
    reference = 2.0 * lambda_star(P, 0.3, 4.0, 1.3, -0.2)
    assert abs(scaled - reference) <= 1e-13 * reference


@pytest.mark.parametrize("a, b", SETS)
def test_infsup_scales_at_the_special_points_too(a, b):
    # C4's 30 points plus (0, 0) and (2, 0); measured worst 1.2e-15.
    P, Q = _pair(a, b, 2.0)
    points = [*INFSUP_POINTS, (0.0, 0.0), (2.0, 0.0)]
    scaled = [rate_I_infsup(Q, alpha, 2.0 * beta) for alpha, beta in points]
    reference = [2.0 * rate_I_infsup(P, alpha, beta) for alpha, beta in points]
    assert _gap(scaled, reference) <= 5e-15


def test_sampler_and_estimators_scale():
    # CIR(4, -2) from 0.5 over T = 10 is CIR(4, -1) from 1 over T = 20, with
    # time running twice as fast: the same seed and step count give the same
    # Gamma and normal draws, so X_T/2, S/2 and 2 Sigma are bit-equal.
    Y = simulate_ensemble(ProcessParams(4.0, -2.0, 0.5), 10.0, 500, 3000, 7)
    X = simulate_ensemble(ProcessParams(4.0, -1.0, 1.0), 20.0, 500, 3000, 7)
    assert np.array_equal(Y.x_T, X.x_T / 2.0)
    assert np.array_equal(Y.S, X.S / 2.0)
    assert np.array_equal(Y.Sigma, 2.0 * X.Sigma)
    fy = functionals_from_summary(Y.T, 0.5, Y.x_T, Y.S, Y.Sigma)
    fx = functionals_from_summary(X.T, 1.0, X.x_T, X.S, X.Sigma)
    # Measured worst: 4.1e-16 relative.  combined is left out: its switch on
    # X_T >= 1 is not scale-covariant (Y_T >= 1 is X_T >= 2), and its
    # estimates differ by up to 0.1 relative.
    for name in ("mle", "tilde", "check"):
        ey, ex = ESTIMATORS[name](fy), ESTIMATORS[name](fx)
        assert np.allclose(ey.alpha, ex.alpha, rtol=1e-15, atol=0.0)
        assert np.allclose(ey.beta, 2.0 * ex.beta, rtol=1e-15, atol=0.0)
