"""Closed-form rate functions, marginals, and the inf-sup cross-check."""

from __future__ import annotations

import itertools
import math
import warnings
from collections import defaultdict
from functools import partial

import numpy as np
import pytest
from scipy import optimize

from cir_ldp import (
    DomainError,
    ProcessParams,
    lambda_star,
    marginal_inf_numeric,
    rate_I_infsup,
    rate_I_mle,
    rate_J,
    rate_K,
    rate_S,
    rate_Sigma,
    rate_V,
    rate_marginal,
    rate_pair,
    rate_triplet_L,
    rate_triplet_x,
    region_constants,
)
from cir_ldp import rates
from cir_ldp._elementwise import _maximum, _minimum, _sq, _sqrt
from cir_ldp.harness import INFSUP_POINTS
from cir_ldp.rates import (
    _Ja_high,
    _Ja_low,
    _rate_J_branch_A,
    _rate_J_branch_B,
    _rate_K_branch_1,
    _rate_K_branch_2,
)

# Every rate evaluation here is quiet: a RuntimeWarning fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF = float("inf")


class TestNamedValues:
    def test_at_4_minus1(self, params44):
        assert rate_J(params44, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert rate_K(params44, 0.0, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert rate_I_mle(params44, 2.0, -1.0) == pytest.approx(2.25, abs=1e-12)
        assert rate_J(params44, 2.0, -1.0) == INF
        assert rate_K(params44, 2.0, -1.0) == pytest.approx(2.25, abs=1e-12)
        assert rate_marginal(params44, "Jb", params44.b) == pytest.approx(0.0, abs=1e-12)
        assert rate_marginal(params44, "Ja", 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_shared_branch_region_agreement(self, params44):
        # For alpha >= alpha_a and beta <= b/3 the two formulas coincide.
        for al, be in [(3.0, -2.0), (2.5, -3.0), (4.0, -1.5), (6.0, -0.6)]:
            assert rate_J(params44, al, be) == pytest.approx(
                rate_K(params44, al, be), abs=1e-12
            )

    def test_region_constants(self, params44):
        rc = region_constants(params44)
        assert rc.ell_a == pytest.approx(10.0 / 9.0 + math.sqrt(64.0 + 36.0) / 9.0, rel=1e-14)
        assert rc.alpha_a == pytest.approx(
            -2.0 / 3.0 * (params44.a / 2.0 - 2.0 - math.sqrt(params44.a**2 - 2.0 * params44.a + 4.0)),
            rel=1e-14,
        )
        assert rc.alpha_a > 2.0


class TestZeroAtTruth:
    def test_all_rates_vanish(self, regimes):
        for p in regimes:
            a, b = p.a, p.b
            assert abs(rate_J(p, a, b)) <= 1e-12
            assert abs(rate_K(p, a, b)) <= 1e-12
            assert abs(rate_I_mle(p, a, b)) <= 1e-12
            assert abs(rate_S(p, -a / b)) <= 1e-12
            assert abs(rate_Sigma(p, -b / (a - 2.0))) <= 1e-12
            assert abs(rate_V(p, 2.0 / (a - 2.0))) <= 1e-12

    def test_marginals_vanish(self, regimes):
        for p in regimes:
            assert abs(rate_marginal(p, "Ja", p.a)) <= 1e-12
            assert abs(rate_marginal(p, "Jb", p.b)) <= 1e-12
            assert abs(rate_marginal(p, "Ka", p.a)) <= 1e-12
            assert abs(rate_marginal(p, "Kb", p.b)) <= 1e-12
            assert abs(rate_marginal(p, "Ia", p.a)) <= 1e-12
            assert abs(rate_marginal(p, "Ib", p.b)) <= 1e-12


class TestScalarRates:
    def test_formulas(self, params44):
        a, b = params44.a, params44.b
        for x in (1.0, 3.0, 5.5):
            assert rate_S(params44, x) == pytest.approx((a + b * x) ** 2 / (8.0 * x), rel=1e-14)
        for y in (0.2, 0.5, 1.4):
            assert rate_Sigma(params44, y) == pytest.approx(
                ((a - 2.0) * y + b) ** 2 / (8.0 * y), rel=1e-14
            )
        assert rate_V(params44, 1.0) == pytest.approx(
            -b / 4.0 * math.sqrt(2.0 * ((a - 2.0) ** 2 + 4.0)) + a * b / 4.0, rel=1e-14
        )

    def test_rate_v_is_contraction_of_rate_pair(self, params44):
        # rate_V(v) must equal the infimum of rate_pair over the hyperbola
        # x y - 1 = v; parameterize by x with y = (v + 1) / x.
        for v in (0.25, 0.5, 1.0, 2.0, 4.0):
            def g(x: float) -> float:
                return rate_pair(params44, x, (v + 1.0) / x)

            xs = np.linspace(0.05, 30.0, 1200)
            vals = [g(float(x)) for x in xs]
            x0 = float(xs[int(np.argmin(vals))])
            res = optimize.minimize_scalar(
                g, bounds=(max(x0 - 0.5, 1e-3), x0 + 0.5), method="bounded",
                options={"xatol": 1e-12},
            )
            assert rate_V(params44, v) == pytest.approx(float(res.fun), abs=1e-6)

    def test_pair_named_value(self, params44):
        assert rate_pair(params44, 4.0, 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_out_of_domain_points_map_to_inf(self, params44):
        assert rate_S(params44, 0.0) == INF
        assert rate_Sigma(params44, -0.5) == INF
        assert rate_V(params44, 0.0) == INF
        assert rate_pair(params44, 2.0, 0.4) == INF


NAN = float("nan")


def beta_b(params: ProcessParams, alpha):
    """RateRegionConstants.beta_b as a function of (params, alpha), for the table."""
    return region_constants(params).beta_b(alpha)


# (rate function, coordinates after params, expected): a NaN coordinate gives
# NaN, otherwise a +-inf coordinate gives +inf.  rate_marginal takes its
# selector as the first coordinate.
_NON_FINITE_CASES = [
    (rate_S, (INF,), INF),
    (rate_S, (-INF,), INF),
    (rate_S, (NAN,), NAN),
    (rate_Sigma, (INF,), INF),
    (rate_Sigma, (NAN,), NAN),
    (rate_V, (INF,), INF),
    (rate_V, (NAN,), NAN),
    (rate_pair, (INF, INF), INF),
    (rate_pair, (INF, 1.0), INF),
    (rate_pair, (2.0, NAN), NAN),
    (rate_pair, (INF, NAN), NAN),
    (rate_triplet_x, (INF, 4.0, 1.0), INF),
    (rate_triplet_x, (1.0, NAN, 1.0), NAN),
    (rate_triplet_L, (4.0, 1.0, -INF), INF),
    (rate_triplet_L, (4.0, NAN, -1.0), NAN),
    (rate_J, (INF, -1.0), INF),
    (rate_J, (-INF, 1.0), INF),
    (rate_J, (NAN, -1.0), NAN),
    (rate_K, (INF, -1.0), INF),
    (rate_K, (3.0, -INF), INF),
    (rate_K, (NAN, -1.0), NAN),
    (rate_I_mle, (INF, -1.0), INF),
    (rate_I_mle, (3.0, NAN), NAN),
    *((rate_marginal, (w, v), INF) for w in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib") for v in (INF, -INF)),
    *((rate_marginal, (w, NAN), NAN) for w in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib")),
    (rate_I_infsup, (NAN, -1.0), NAN),
    (rate_I_infsup, (3.0, NAN), NAN),
    (rate_I_infsup, (INF, NAN), NAN),
    (rate_I_infsup, (INF, -1.0), INF),
    (rate_I_infsup, (-INF, 1.0), INF),
    (rate_I_infsup, (1.0, -INF), INF),
    (rate_I_infsup, (INF, 1.0), INF),
    # Finite coordinates whose evaluation overflows give +inf: J's first
    # term, (k u) u, is about 1.25e499 here.
    (rate_J, (-1e200, 1e-300), INF),
    # Where C_alpha's square overflows, K and beta_b take sqrt(C_alpha) as
    # m q, so these stay finite.  The values are the closed forms to 80
    # digits in mpmath, correctly rounded; Ka is K at mpmath's beta_b.
    (rate_K, (-1e200, 0.1), 1.2499999999999999e200),
    (beta_b, (-1e200,), 2.5e99),
    (rate_marginal, ("Ka", -1e200), 1e100),
    (rate_marginal, ("Ka", -1e300), 1e150),
    # Where a square would overflow, K, S and Sigma take a form without it,
    # so these stay finite.  The values are the closed forms in 800-digit
    # mpmath, correctly rounded.
    (rate_K, (-1.0, 1e200), 1.4e201),
    (rate_K, (5.0, -1e200), 4.166666666666667e199),
    (rate_S, (1e300,), 1.25e299),
    (rate_Sigma, (1e300,), 5e299),
    # Where a square of a term in alpha would overflow, J's first term is
    # (k u) u and K's branch 2 takes the form without beta^2.  The values are
    # the closed forms in 3000-bit mpmath, correctly rounded.
    (rate_J, (1e200, -0.1), 1.2499999999999999e200),
    (rate_K, (1e200, -0.1), 1.2499999999999999e200),
    (rate_I_mle, (1e200, -0.1), 1.2499999999999999e200),
    # I = min(J, K), and J = K at these two points, so K's form without beta^2
    # must give J's correctly rounded value.  Its alpha * beta terms are
    # cancelled by hand; as two floats they would cancel to 0 at the first.
    (rate_I_mle, (-1e150, 1e155), 2e155),
    (rate_I_mle, (1e8, -1e200), 2.500000050000001e199),
    # Kb's minimiser runs out to |alpha| ~ 10 |beta|.  The values are the
    # infimum of K over alpha in 800-digit mpmath, correctly rounded: at
    # beta = 1e200 and 1e300 on branch 1, near alpha = -sqrt(112) beta; at
    # -1e300 the relative entropy -(beta - b)^2 / (4 beta) of branch 2.
    (rate_marginal, ("Kb", 1e200), 2e200),
    (rate_marginal, ("Kb", 1e300), 2e300),
    (rate_marginal, ("Kb", -1e300), 2.5e299),
    (rate_marginal, ("Ib", 1e200), 2e200),
    # Ia = min(Ja, Ka): Ja(-1e200) = 1e100.
    (rate_marginal, ("Ia", -1e200), 1e100),
    (rate_marginal, ("Ia", -1e300), 1e150),
    # K's alpha * beta / 8 terms cancel in the branch forms, which lost all
    # of K here and gave I < 0, I = 0, or I = K < J.  The values are the
    # closed forms in 200-digit mpmath, correctly rounded; Ka(-1e20) is K at
    # beta_b(-1e20), and equals the infimum of K over beta to 20 digits.
    (rate_I_mle, (-1e17, 1e17), 2e17),
    (rate_I_mle, (1e17, -1e8), 149999999.0),
    (rate_I_mle, (-1e150, 1e150), 2e150),
    (rate_I_mle, (-1e9, 1e9), 2000000001.125),
    (rate_K, (-1e12, 1e12), 2000000000013.125),
    (rate_marginal, ("Ka", -1e20), 9999999999.0),
    (rate_marginal, ("Ia", -1e20), 9999999999.0),
    # beta_b is not a rate: at alpha = (a^2 + 32)/8 = 6 its root is exactly 0,
    # and it gives b alpha / 0 = -inf.
    (beta_b, (6.0,), -INF),
    # A coordinate is a number: one whose dtype is not an integer or a float
    # kind, such as a bool, a string or None, is refused.
    (rate_S, (None,), DomainError("rate coordinate must be a real number, got None")),
    (rate_S, ("2",), DomainError("rate coordinate must be a real number, got '2'")),
    (rate_S, (True,), DomainError("rate coordinate must be a real number, got True")),
    (rate_pair, (np.bool_(True), 1.0),
     DomainError("rate coordinate must be a real number, got np.True_")),
    (rate_J, (3.0, np.array([True, False])),
     DomainError("rate coordinate must be a real number, got array([ True, False])")),
    (rate_marginal, ("Ja", None), DomainError("rate coordinate must be a real number, got None")),
    (rate_I_infsup, (None, -1.0),
     DomainError("rate coordinate must be a real number, got None")),
]


class TestNonFinitePolicy:
    @pytest.mark.parametrize(
        "fn, coords, expected",
        _NON_FINITE_CASES,
        ids=[f"{fn.__name__}{coords}" for fn, coords, _ in _NON_FINITE_CASES],
    )
    def test_policy(self, params44, fn, coords, expected):
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as info:
                fn(params44, *coords)
            assert str(info.value) == str(expected)
            return
        value = fn(params44, *coords)
        if math.isnan(expected):
            assert math.isnan(value)
        else:
            assert value == expected

    def test_int_coordinates_are_their_floats(self, params44):
        # A Python int is still a number past int64, and past float range it
        # reads as +-inf, as 1e400 does.
        for x, f in ((2, 2.0), (2**70, float(2**70)), (10**400, INF), (-(10**400), -INF)):
            assert rate_S(params44, x) == rate_S(params44, f)
            assert rate_J(params44, x, -1) == rate_J(params44, f, -1.0)
            assert rate_marginal(params44, "Kb", x) == rate_marginal(params44, "Kb", f)
            assert rate_I_infsup(params44, x, -1) == rate_I_infsup(params44, f, -1.0)
        ints = np.array([1, 2, 7], dtype=np.int32)
        np.testing.assert_array_equal(rate_pair(params44, ints, 1), rate_pair(params44, ints * 1.0, 1.0))

    def test_unknown_marginal_selector_raises_before_the_guard(self, params44):
        with pytest.raises(DomainError):
            rate_marginal(params44, "Lb", NAN)

    @pytest.mark.parametrize("v", [1e300, -1e300])
    @pytest.mark.parametrize("which, axis", [("J", "a"), ("J", "b"), ("K", "a"), ("K", "b")])
    def test_numeric_infimum_at_huge_coordinates_is_quiet(self, params44, which, axis, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = marginal_inf_numeric(params44, which, axis, v)
        assert value == INF or (math.isfinite(value) and value >= 0.0)


@pytest.mark.parametrize("p", [ProcessParams(4.0, -1.0), ProcessParams(3.0, -2.0)], ids=str)
def test_no_rate_is_negative_on_a_log_grid(p):
    # |alpha| and |beta| from 1e-10 to 1e300 in all four sign quadrants:
    # K's branch forms cancel alpha * beta / 8 and went negative past
    # |alpha| ~ 1e16.  +inf is allowed; nothing may be negative or NaN.
    mags = np.logspace(-10.0, 300.0, 311)
    axis = np.concatenate([-mags[::-1], mags])
    al, be = axis[:, None], axis[None, :]
    values = {fn.__name__: fn(p, al, be) for fn in (rate_J, rate_K, rate_I_mle)}
    values.update({w: rate_marginal(p, w, axis) for w in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib")})
    assert {name: int(np.sum(~(v >= 0.0))) for name, v in values.items()} == dict.fromkeys(values, 0)


def test_k_stays_finite_where_alpha_b_squared_overflows():
    # At (50, -30), alpha b^2 = -5.9e308 overflows in the head of K's
    # combined form, though K is finite.  The values are the closed forms in
    # 1200-digit mpmath, correctly rounded; Ka is K at mpmath's beta_b, and
    # the float call is one ulp from it.
    p = ProcessParams(50.0, -30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rate_K(p, -6.6e305, 4.77e176) == 9.54e176
        assert rate_marginal(p, "Ka", -6.6e305) == pytest.approx(2.437211521390788e154, rel=2.5e-16)
        np.testing.assert_array_equal(
            rate_K(p, np.array([-6.6e305, -1.0]), np.array([4.77e176, 1.0])),
            [9.54e176, rate_K(p, -1.0, 1.0)],
        )


class TestSeamContinuity:
    def test_j_branches_at_beta_third_b(self, params44):
        be = params44.b / 3.0
        for al in (2.5, 3.0, 4.0, 5.0):
            assert _rate_J_branch_A(params44, al, be) == pytest.approx(
                _rate_J_branch_B(params44, al, be), abs=1e-9
            )

    def test_k_branches_at_alpha_a(self, params44):
        al = region_constants(params44).alpha_a
        for be in (-0.5, -1.0, -2.0):
            assert _rate_K_branch_1(params44, al, be) == pytest.approx(
                _rate_K_branch_2(params44, al, be), abs=1e-9
            )

    def test_ja_branches_at_ell_a(self, params44):
        al = region_constants(params44).ell_a
        assert _Ja_low(params44, al) == pytest.approx(_Ja_high(params44, al), abs=1e-9)

    def test_ka_continuous_at_alpha_a(self, params44):
        al = region_constants(params44).alpha_a
        below = rate_marginal(params44, "Ka", al - 1e-10)
        above = rate_marginal(params44, "Ka", al + 1e-10)
        assert below == pytest.approx(above, abs=1e-7)


class TestSliceIdentities:
    def test_pair_rate_is_lambda_star_slice(self, params44):
        for y, z in [(3.0, 0.8), (5.0, 0.4), (4.0, 1.2)]:
            assert rate_pair(params44, y, z) == pytest.approx(
                lambda_star(params44, 0.0, y, z, 0.0), abs=1e-12
            )

    def test_scalar_rates_are_marginal_infima(self, params44):
        # rate_S(x) = inf_z rate_pair(x, z) and rate_Sigma(y) = inf_x rate_pair(x, y).
        for x in (3.0, 5.0):
            res = optimize.minimize_scalar(
                lambda z: rate_pair(params44, x, z), bounds=(1.0 / x + 1e-9, 50.0),
                method="bounded", options={"xatol": 1e-12},
            )
            assert rate_S(params44, x) == pytest.approx(float(res.fun), abs=1e-8)
        for y in (0.4, 0.9):
            res = optimize.minimize_scalar(
                lambda x: rate_pair(params44, x, y), bounds=(1.0 / y + 1e-9, 80.0),
                method="bounded", options={"xatol": 1e-12},
            )
            assert rate_Sigma(params44, y) == pytest.approx(float(res.fun), abs=1e-8)


#: C5's grids: alpha for Ja and Ka, beta for Jb and Kb (its first 20 are < 0).
_C5_ALPHA = np.linspace(-1.0, 7.0, 40).tolist()
_C5_BETA = np.concatenate([np.linspace(-3.0, -0.08, 20), np.linspace(0.08, 1.5, 20)]).tolist()

#: marginal_inf_numeric at (a, b) = (4, -1) as float hex, on every third
#: point of C5's grids (every second negative beta for K/b, where the scan
#: adds its nodes at 2 + 10^k): (surface, axis, abscissae, hexes).
_MARGINAL_GOLDEN = [
    ("J", "a", _C5_ALPHA[::3], [
        "0x1.26c15a230acfap+1", "0x1.0fc35faf6e62fp+1", "0x1.ebc66b8a5d7a7p+0",
        "0x1.af51aeeded912p+0", "0x1.6350eccdcee86p+0", "0x1.d5013f82cee73p-1",
        "0x1.26ef20d05dba4p-3", "0x1.731bf94824a9bp-6", "0x1.93427b102fe6cp-13",
        "0x1.d22ef484fa99ep-8", "0x1.aab6a12413be5p-6", "0x1.9eb25931abe4cp-5",
        "0x1.3f8a8d10e118cp-4", "0x1.b570f5ff3fecep-4",
    ]),
    ("K", "a", _C5_ALPHA[1::3], [
        "0x1.99d2e80e037d9p+0", "0x1.75599ecbe9fd7p+0", "0x1.4cf4d5fd3639ap+0",
        "0x1.1e94596decd58p+0", "0x1.ca31119d6b6ccp-1", "0x1.046386772ca52p-1",
        "0x1.4d37d9989458fp-4", "0x1.3fbf4a274b92ap-7", "0x1.fa068b9c1bcb4p-12",
        "0x1.9a2c7c9e3785ap-7", "0x1.14d3d4807f51ep-5", "0x1.e7a8fca49dabcp-5",
        "0x1.666684c941154p-4",
    ]),
    ("J", "b", _C5_BETA[::3], [
        "0x1.5555555555556p-2", "0x1.dd9974135f9dfp-3", "0x1.1e490c8726972p-3",
        "0x1.e1f59491e005ap-5", "0x1.580bf5fd9e51ap-8", "0x1.12b328bf68711p-5",
        "0x1.10b51618caa50p-1", "0x1.4f39aad8a826dp+0", "0x1.c20563b48c206p+0",
        "0x1.1a688e48380cep+1", "0x1.53ce6ab62a09bp+1", "0x1.8d3447241c068p+1",
        "0x1.c69a23920e034p+1", "0x1.0000000000000p+2",
    ]),
    ("K", "b", _C5_BETA[:20:2], [
        "0x1.5555555555554p-2", "0x1.1063516950fe8p-2", "0x1.9be7f67d7bdf8p-3",
        "0x1.1e490c8726968p-3", "0x1.5760c77884144p-4", "0x1.2c42750e677d1p-5",
        "0x1.580bf5fd9e4cfp-8", "0x1.bbb26022cac9ap-8", "0x1.8ea5181394088p-4",
        "0x1.41a8c9a260e7ap-1",
    ]),
]

#: |closed-form Kb - marginal_inf_numeric| <= _KB_GAP * max(1, Kb): measured
#: up to 1.6e-15 on the grids of the two tests below.
_KB_GAP = 4e-15


class TestMarginals:
    def test_numeric_cross_checks(self, params44):
        for v in (-1.0, 1.0, 3.0, 5.0):
            assert rate_marginal(params44, "Ja", v) == pytest.approx(
                marginal_inf_numeric(params44, "J", "a", v), abs=1e-6
            )
            assert rate_marginal(params44, "Ka", v) == pytest.approx(
                marginal_inf_numeric(params44, "K", "a", v), abs=1e-6
            )
        for v in (-2.0, -0.5, 0.5, 1.0):
            assert rate_marginal(params44, "Jb", v) == pytest.approx(
                marginal_inf_numeric(params44, "J", "b", v), abs=1e-6
            )

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0)])
    def test_kb_is_the_numeric_infimum(self, a, b):
        # Kb is the infimum of rate_K over alpha on the half-line where K is
        # finite (alpha > 0 for beta < 0, alpha < 0 for beta > 0).  The
        # oracles are a plain bounded minimisation and marginal_inf_numeric.
        p = ProcessParams(a, b)
        for beta in (-2.0, -0.5, 0.5, 1.0):
            sign = 1.0 if beta < 0.0 else -1.0
            res = optimize.minimize_scalar(
                lambda u: rate_K(p, sign * u, beta), bounds=(1e-9, 60.0),
                method="bounded", options={"xatol": 1e-12},
            )
            numeric = marginal_inf_numeric(p, "K", "b", beta)
            assert numeric == pytest.approx(float(res.fun), abs=1e-6)
            assert abs(rate_marginal(p, "Kb", beta) - numeric) <= _KB_GAP * max(1.0, numeric)

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
    def test_kb_closed_form_against_numeric_search(self, a, b):
        # 90 betas over [-4, 3] cross beta = b/3, K's branch threshold beta_K
        # (-0.189 at (4, -1)) and beta = 0.
        p = ProcessParams(a, b)
        betas = np.linspace(-4.0, 3.0, 90)
        closed = rate_marginal(p, "Kb", betas)
        numeric = np.array([marginal_inf_numeric(p, "K", "b", float(v)) for v in betas])
        assert np.all(np.abs(closed - numeric) <= _KB_GAP * np.maximum(1.0, numeric))

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
    @pytest.mark.parametrize(
        "which, axis, v, marginal",
        [
            ("J", "a", 1e300, "Ja"), ("J", "a", -1e300, "Ja"), ("K", "a", 1e300, "Ka"),
            ("J", "a", 1e12, "Ja"), ("K", "a", -1e12, "Ka"), ("J", "b", -1e12, "Jb"),
            ("K", "b", -1e12, "Kb"), ("J", "b", -1e20, "Jb"), ("K", "b", -1e20, "Kb"),
            ("K", "b", 1e20, "Kb"), ("J", "b", 1e12, "Jb"),
        ],
    )
    def test_numeric_infimum_past_the_bracket_cap(self, a, b, which, axis, v, marginal):
        # The minimiser lies far past the linear bracket's cap of 1e6 (near
        # sqrt|v| along alpha, near |v| along beta), or the probes' minimum
        # is so large that a margin of 10 rounds away.  At (4, -1) the search
        # gave 1.19e293 at ("J", "a", +-1e300) and ("K", "a", 1e300), and
        # 250000476836.16 at ("J", "b", -1e12).
        p = ProcessParams(a, b)
        closed = rate_marginal(p, marginal, v)
        assert marginal_inf_numeric(p, which, axis, v) == pytest.approx(closed, rel=1e-10)

    def test_kb_numeric_search_finds_the_narrow_valley(self):
        # At (2.05, -0.05) branch 2's minimum alpha* = 2.0083 sits in a
        # valley narrower than the linear scan's spacing (>= 0.033), next to
        # K's (alpha - 2)^-1 wall; Kb = 0.0524964 there.
        p, beta = ProcessParams(2.05, -0.05), -0.0082864
        assert marginal_inf_numeric(p, "K", "b", beta) == pytest.approx(
            rate_marginal(p, "Kb", beta), rel=1e-9
        )

    @pytest.mark.parametrize(
        "which, axis, grid, bits", _MARGINAL_GOLDEN, ids=[f"{w}/{ax}" for w, ax, _, _ in _MARGINAL_GOLDEN]
    )
    def test_numeric_infimum_golden_bits(self, params44, which, axis, grid, bits):
        assert [marginal_inf_numeric(params44, which, axis, v).hex() for v in grid] == bits

    def test_profile_identities(self, params44):
        for v in (-1.5, 0.0, 2.0, 4.5):
            ia = rate_marginal(params44, "Ia", v)
            assert ia == pytest.approx(
                min(rate_marginal(params44, "Ja", v), rate_marginal(params44, "Ka", v)),
                abs=1e-12,
            )
        for v in (-2.5, -1.0, 0.0, 1.0):
            ib = rate_marginal(params44, "Ib", v)
            assert ib == pytest.approx(
                min(rate_marginal(params44, "Jb", v), rate_marginal(params44, "Kb", v)),
                abs=1e-12,
            )

    def test_known_profile_values(self, params44):
        assert rate_marginal(params44, "Jb", 0.0) == pytest.approx(1.0, abs=1e-12)
        assert rate_marginal(params44, "Ib", 0.0) == pytest.approx(1.0, abs=1e-12)
        assert rate_marginal(params44, "Ka", 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert rate_marginal(params44, "Ja", 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_unknown_name_rejected(self, params44):
        with pytest.raises(DomainError):
            rate_marginal(params44, "Qa", 1.0)
        with pytest.raises(DomainError):
            marginal_inf_numeric(params44, "I", "a", 1.0)


#: rate_I_infsup at (a, b) = (4, -1), as float hex: the 30 C4 points (the
#: smaller of the t = 0 and x = 0 face searches), then (2, 0) and (0, 0) (the
#: 2-D face scans), (1, 0) (both faces empty) and (2, -1) (the x = 0 face
#: over log z).  Any change to the float arithmetic of the searches or of
#: lambda_star shows here; the searches at (2, 0), (0, 0) and on alpha = 2
#: also go through libm's exp.
_INFSUP_GOLDEN = [
    ((2.5, -0.5), "0x1.0000000000000p-2"),
    ((2.5, -2.0), "0x1.a800000000000p+0"),
    ((3.0, -1.0), "0x1.0000000000000p-3"),
    ((3.0, -3.0), "0x1.6000000000000p+0"),
    ((3.5, -0.7), "0x1.111111111110cp-5"),
    ((4.0, -2.5), "0x1.cccccccccccccp-2"),
    ((4.5, -1.2), "0x1.1eb851eb85200p-7"),
    ((5.0, -4.0), "0x1.a555555555557p-1"),
    ((6.0, -0.8), "0x1.e66666666666ap-3"),
    ((2.2, -1.5), "0x1.52dddcfe8eb8cp+1"),
    ((0.5, 0.7), "0x1.335a35a35a35ap+1"),
    ((0.5, -0.6), "0x1.73a1a3a2a892ap+3"),
    ((1.0, 0.5), "0x1.0000000000001p+1"),
    ((1.0, -1.0), "0x1.07f07b357f684p+3"),
    ((1.5, 1.2), "0x1.09bbbbbbbbbbcp+2"),
    ((1.5, -2.0), "0x1.2b999888aaa57p+3"),
    ((0.3, 2.0), "0x1.4c72727272728p+2"),
    ((1.8, -0.4), "0x1.0f4d181838c92p+0"),
    ((0.8, -3.0), "0x1.19e49c64b8cf0p+5"),
    ((1.2, 0.9), "0x1.7c9f49f49f4a0p+1"),
    ((0.0, 0.5), "0x1.1000000000000p+1"),
    ((-0.5, 0.8), "0x1.5347ae147ae15p+1"),
    ((-1.0, 1.0), "0x1.8555555555556p+1"),
    ((-1.5, 2.0), "0x1.4049249249249p+2"),
    ((-2.0, 0.6), "0x1.4dddddddddddfp+1"),
    ((-3.0, 1.5), "0x1.0444444444444p+2"),
    ((-0.3, 3.0), "0x1.cfdf59c91700cp+2"),
    ((-2.5, 2.5), "0x1.802d82d82d82ep+2"),
    ((-4.0, 1.2), "0x1.d000000000000p+1"),
    ((-0.8, 0.4), "0x1.1f8af8af8af8ap+1"),
    # (2, 0), (0, 0), beta = 0 with 0 < alpha < 2, and alpha = 2
    ((2.0, 0.0), "0x1.0000000000000p+0"),
    ((0.0, 0.0), "0x1.6a09e667f3bcep+0"),
    ((1.0, 0.0), "inf"),
    ((2.0, -1.0), "0x1.2000000000000p+1"),
]


#: rate_I_infsup at (a, b) = (3, -2) as float hex, at the 30 C4 points of
#: _INFSUP_GOLDEN.
_INFSUP_GOLDEN_3_2 = [
    "0x1.2000000000000p+0", "0x1.0000000000000p-3", "0x1.8000000000000p-2",
    "0x1.0000000000000p-3", "0x1.3bbbbbbbbbbbap+0", "0x1.4ccccccccccd0p-4",
    "0x1.7851eb851eb86p-1", "0x1.2aaaaaaaaaaaep-2", "0x1.3ccccccccccccp+1",
    "0x1.1777777777770p-1", "0x1.01e79e79e79e8p+2", "0x1.32fa6ba8a94ebp+3",
    "0x1.c800000000002p+1", "0x1.a5b3d742c2655p+2", "0x1.1a22222222222p+2",
    "0x1.c2aaaaaaaaaaep+2", "0x1.849c9c9c9c9c8p+2", "0x1.e0583fbdf65aep+0",
    "0x1.d1a2222222222p+4", "0x1.f149f49f49f48p+1", "0x1.2200000000001p+2",
    "0x1.2cf5c28f5c290p+2", "0x1.42aaaaaaaaaacp+2", "0x1.9c92492492492p+2",
    "0x1.246c69b2b1c13p+2", "0x1.8d11111111110p+2", "0x1.017beb3922e02p+3",
    "0x1.de0b60b60b60bp+2", "0x1.76f6f8f7fde7ep+2", "0x1.5fd3bbc00b784p+2",
]


#: The (a, b) sets of the special-point check.
_SPECIAL_GRID = list(itertools.product(
    (2.01, 2.05, 2.2, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0),
    (-0.01, -0.05, -0.5, -1.0, -3.0, -10.0, -30.0),
))


class TestInfSup:
    def test_equals_min_of_j_and_k(self, params44):
        pts = [(1.0, 0.5), (-1.0, 1.0), (1.2, -0.8), (3.0, -1.0), (4.5, -1.2), (0.5, 0.7)]
        for al, be in pts:
            target = rate_I_mle(params44, al, be)
            got = rate_I_infsup(params44, al, be)
            assert got == pytest.approx(target, abs=1e-8)

    def test_special_points(self, params44, regimes):
        # The 2-D face scans at (0, 0) and (2, 0) against the closed form, from
        # a next to 2 and b next to 0 out to (50, -30), and at the regimes.
        sets = [ProcessParams(a, b) for a, b in _SPECIAL_GRID] + regimes
        off = []
        for p in sets:
            for pt in ((0.0, 0.0), (2.0, 0.0)):
                want = rate_I_mle(p, *pt)
                got = rate_I_infsup(p, *pt)
                if not abs(got - want) <= 1e-12 * want:
                    off.append((p, pt, got, want))
        assert off == []
        assert rate_I_infsup(params44, 2.0, -1.0) == pytest.approx(2.25, abs=1e-8)

    def test_golden_bits(self, params44):
        assert [(pt, rate_I_infsup(params44, *pt).hex()) for pt, _ in _INFSUP_GOLDEN] == [
            (pt, float.fromhex(h).hex()) for pt, h in _INFSUP_GOLDEN
        ]

    def test_golden_bits_at_3_minus2(self):
        p = ProcessParams(3.0, -2.0)
        got = [rate_I_infsup(p, *pt).hex() for pt, _ in _INFSUP_GOLDEN[:30]]
        assert got == _INFSUP_GOLDEN_3_2

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
    def test_face_scans_give_the_float_bits(self, a, b, monkeypatch):
        # Each face scan is one array pass through lambda_star's face value,
        # and the refine calls the float lambda_star.  On the scan nodes of
        # every C4 face, and of the alpha = 2 face (over log z), the array
        # pass must give the bits of the float calls.
        p = ProcessParams(a, b)
        faces = []
        face_min = rates._face_min

        def recorded(params, point, lo, hi):
            faces.append((point, lo, hi))
            return face_min(params, point, lo, hi)

        monkeypatch.setattr(rates, "_face_min", recorded)
        for pt in (*INFSUP_POINTS, (2.0, -1.0), (2.0, -0.3)):
            rate_I_infsup(p, *pt)
        assert len(faces) >= len(INFSUP_POINTS) + 2
        for point, lo, hi in faces:
            nodes = np.linspace(lo, hi, 121)
            floats = [lambda_star(p, *point(u)) for u in nodes.tolist()]
            array = rates._lambda_star_array(p, *point(nodes))
            assert np.array_equal(_bits(array), _bits(floats)), (lo, hi)

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
    def test_special_point_grids_give_the_float_bits(self, a, b, monkeypatch):
        # At (0, 0) and (2, 0) the 121 x 121 grid is one array pass, and its
        # rows are the scan nodes of the 1-D face searches the refine makes:
        # every 8th row must give the bits of the float calls.
        p = ProcessParams(a, b)
        scans = []
        face_min_2d = rates._face_min_2d

        def recorded(params, point, *box):
            scans.append((point, box))
            return face_min_2d(params, point, *box)

        monkeypatch.setattr(rates, "_face_min_2d", recorded)
        rate_I_infsup(p, 0.0, 0.0)
        rate_I_infsup(p, 2.0, 0.0)
        assert len(scans) == 2
        for point, (u_lo, u_hi, v_lo, v_hi) in scans:
            us = np.linspace(u_lo, u_hi, 121)[::8]
            vs = np.linspace(v_lo, v_hi, 121)
            grid = rates._lambda_star_array(p, *point(us[:, None], vs))
            floats = [[lambda_star(p, *point(u, v)) for v in vs.tolist()] for u in us.tolist()]
            assert np.array_equal(_bits(grid), _bits(floats)), (u_lo, u_hi)

    def test_beta_zero_sliver_is_infinite(self, params44):
        # x = sqrt(alpha) > 0 forces t = 0, and there z = beta/(2 - alpha) = 0
        # leaves the cone: no quadruplet maps to the sliver.
        assert rate_I_infsup(params44, 1.0, 0.0) == INF

    def test_domain_errors(self, params44):
        for al, be in [(3.0, 1.0), (-1.0, -1.0), (-0.5, 0.0), (0.0, -0.5), (3.0, 0.0)]:
            with pytest.raises(DomainError):
                rate_I_infsup(params44, al, be)

    def test_i_mle_is_pointwise_min(self, params44):
        rng = np.random.default_rng(8)
        for _ in range(50):
            al = float(rng.uniform(2.1, 6.0))
            be = float(rng.uniform(-4.0, -0.1))
            assert rate_I_mle(params44, al, be) == min(
                rate_J(params44, al, be), rate_K(params44, al, be)
            )

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0)])
    def test_band_around_beta_zero(self, a, b):
        # Points near beta = 0, near K's apex in D1 and on alpha = 2, where a
        # search between the two faces would find values below I.  Both
        # sides are +inf on the sliver beta = 0, 0 < alpha < 2.
        p = ProcessParams(a, b)
        pts = [
            (-0.01, 0.02), (-0.05, 0.05), (-0.3, 0.1), (0.1, 0.01), (1.0, 0.01),
            (1.0, -0.01), (1.9, -0.01), (1.0, 0.0), (0.5, 0.0), (1.5, 0.0),
            (-0.25, 0.25), (0.0, 0.25), (0.25, 0.25), (-0.1, 0.1), (-0.36, 0.31),
        ]
        pts += [
            (al, be)
            for al in (0.1, 1.0, 1.9)
            for be in (-0.3, -0.03, -0.003, 0.0, 0.003, 0.03, 0.3)
        ]
        pts += [(2.0, be) for be in (-0.01, -0.1, -0.5, -1.0, -2.0, -3.0, -5.0)]
        for al, be in pts:
            want = rate_I_mle(p, al, be)
            got = rate_I_infsup(p, al, be)
            if want == INF:
                assert got == INF, (al, be)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (al, be)


@pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
@pytest.mark.parametrize("rate", [rate_J, rate_K, rate_I_mle, rate_I_infsup])
def test_hessian_at_the_centre_is_a_quarter_of_fisher(rate, a, b):
    # The LDP's curvature at (a, b) matches the CLT: C/4, with
    # C = [[E 1/X, 1], [1, E X]] under the stationary Gamma law.
    p = ProcessParams(a, b)
    want = np.array([[-b / (a - 2.0), 1.0], [1.0, -a / b]]) / 4.0
    h = 1e-4

    def f(da, db):
        return rate(p, a + da * h, b + db * h)

    f0 = f(0, 0)
    haa = (f(1, 0) - 2.0 * f0 + f(-1, 0)) / h**2
    hbb = (f(0, 1) - 2.0 * f0 + f(0, -1)) / h**2
    hab = (f(1, 1) - f(1, -1) - f(-1, 1) + f(-1, -1)) / (4.0 * h * h)
    np.testing.assert_allclose([[haa, hab], [hab, hbb]], want, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
def test_one_dimensional_curvature_is_the_inverse_variance(a, b):
    # rate'' at the ergodic mean times the functional's asymptotic variance
    # is 1.  The variances come from Lambda's Hessian at 0 in (mu, nu):
    # 4a/(-b)^3 for S, -4b/(a-2)^3 for Sigma, -4/((a-2)(-b)) across them,
    # and grad' H grad for V = S Sigma - 1, grad = (E 1/X, E X).
    p = ProcessParams(a, b)
    mean_x, mean_inv = -a / b, -b / (a - 2.0)
    h_mm, h_nn, h_mn = 4.0 * a / (-b) ** 3, -4.0 * b / (a - 2.0) ** 3, -4.0 / ((a - 2.0) * (-b))
    var_v = mean_inv**2 * h_mm + 2.0 * mean_inv * mean_x * h_mn + mean_x**2 * h_nn
    h = 1e-4
    cases = [
        (rate_S, mean_x, h_mm),
        (rate_Sigma, mean_inv, h_nn),
        (rate_V, mean_x * mean_inv - 1.0, var_v),
    ]
    for rate, centre, variance in cases:
        curvature = (rate(p, centre + h) - 2.0 * rate(p, centre) + rate(p, centre - h)) / h**2
        assert curvature * variance == pytest.approx(1.0, rel=0.0, abs=1e-6), rate.__name__


@pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
def test_j_is_relative_entropy_below_b_over_3(a, b):
    # For beta <= b/3, J is the stationary relative-entropy rate of
    # CIR(alpha, beta) from CIR(a, b), written out here from scratch.
    al, be = np.meshgrid(
        np.linspace(2.2, 9.0, 35), np.linspace(3.0 * b, b / 3.0, 30, endpoint=False)
    )
    re = (
        (al - a) ** 2 * (-be) / (al - 2.0) + 2.0 * (al - a) * (be - b) + (be - b) ** 2 * al / (-be)
    ) / 8.0
    np.testing.assert_allclose(rate_J(ProcessParams(a, b), al, be), re, rtol=1e-13, atol=0.0)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.uint64)


def _branch_points(p: ProcessParams) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta grids through every branch boundary and apex."""
    rc = region_constants(p)
    alphas = np.array(sorted({-2.0, -0.5, 0.0, 0.7, 2.0, 2.6, rc.ell_a, rc.alpha_a, p.a, 6.5}))
    betas = np.array(sorted({-3.0, p.b, -0.6, p.b / 3.0, -0.05, 0.0, 0.4, 1.5}))
    return alphas, betas


_ARRAY_REGIMES = [ProcessParams(4.0, -1.0), ProcessParams(3.0, -2.0), ProcessParams(2.5, -0.5)]

#: Coordinates added to the branch points: signed zeros, tiny and huge
#: magnitudes (1e155 squares past the largest float), and the non-finite ones.
_EXTREMES = [0.0, -0.0, 1e-300, -1e-300, 1e155, -1e155, 1e200, -1e200, 1e300, -1e300, INF, -INF, NAN]


class TestArrays:
    """Array coordinates broadcast and give the scalar results bit for bit."""

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_couple_rates_and_helpers(self, p):
        alphas, betas = _branch_points(p)
        al, be = alphas[:, None], betas[None, :]
        rc = region_constants(p)
        fns = [
            rate_J, rate_K, rate_I_mle, rate_pair,
            _rate_J_branch_A, _rate_J_branch_B, _rate_K_branch_1, _rate_K_branch_2,
        ]
        # The elements are numpy scalars: the unguarded helpers divide by zero
        # at some of these points, which raises for Python floats.
        with np.errstate(all="ignore"):
            for fn in fns:
                scalar = [[fn(p, x, y) for y in betas] for x in alphas]
                assert np.array_equal(_bits(fn(p, al, be)), _bits(scalar)), fn.__name__
            for fn in (partial(_Ja_low, p), partial(_Ja_high, p), rc.C_alpha, rc.beta_b):
                scalar = [fn(x) for x in alphas]
                assert np.array_equal(_bits(fn(alphas)), _bits(scalar)), fn

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_single_branch_arrays_match_mixed_arrays(self, p):
        # rate_J and rate_K evaluate a branch only where some element takes
        # it.  An array whose points all take one branch must give the bits
        # of the same points inside an array that takes every branch.
        rc = region_constants(p)
        ka_alpha = np.linspace(0.05, rc.alpha_a, 41)[:-1]  # K's branch 1
        jb_alpha = np.linspace(2.0 + 1e-7, 12.0, 41)
        scans = [
            (rate_K, ka_alpha, rc.beta_b(ka_alpha)),  # a Ka scan below alpha_a
            (rate_K, np.linspace(rc.alpha_a, 9.0, 41)[1:], np.full(40, p.b)),  # branch 2
            (rate_J, jb_alpha, np.full(41, p.b / 3.0 - 0.5)),  # a Jb scan: branch B
            (rate_J, jb_alpha, np.full(41, 0.5 * p.b / 3.0)),  # branch A, beta < 0
            (rate_J, -jb_alpha, np.full(41, 0.7)),  # branch A, beta > 0
        ]
        alphas, betas = _branch_points(p)
        grid_al, grid_be = (g.ravel() for g in np.meshgrid(alphas, betas))
        for fn, al, be in scans:
            alone = fn(p, al, be)
            mixed = fn(p, np.concatenate([grid_al, al]), np.concatenate([grid_be, be]))
            assert np.array_equal(_bits(alone), _bits(mixed[grid_al.size:])), fn.__name__
            assert np.array_equal(_bits(alone), _bits([fn(p, *q) for q in zip(al.tolist(), be.tolist())]))

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_float_bodies_divide_only_in_taken_branches(self, p):
        # alpha = 0, alpha = 2 and beta = 0 divide only in branches that do
        # not hold there, and at (2, -1e300), a branch-1 point of K that
        # takes the combined form, only branch 2's combined form divides by
        # alpha - 2.  So the float bodies of J, K and I run at every finite
        # point without a ZeroDivisionError, and give the public value.
        alphas, betas = (v.tolist() + [x for x in _EXTREMES if math.isfinite(x)] for v in _branch_points(p))
        for fn in (rate_J, rate_K, rate_I_mle):
            for al, be in itertools.product(alphas, betas):
                value = fn.__wrapped__(p, al, be)
                assert _bits(value if value > -INF else INF) == _bits(fn(p, al, be)), (fn.__name__, al, be)

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_one_dimensional_rates_and_triplets(self, p):
        xs = np.array([-1.0, -0.0, 0.0, 0.3, 1.0, 2.0, -p.a / p.b, 7.5])
        for fn in (rate_S, rate_Sigma, rate_V):
            assert np.array_equal(
                _bits(fn(p, xs)), _bits([fn(p, float(x)) for x in xs])
            ), fn.__name__
        g = np.array([-1.0, 0.0, 0.5, 1.0, 3.0])
        for fn in (rate_triplet_x, rate_triplet_L):
            got = fn(p, g[:, None, None], g[None, :, None], -g[None, None, :])
            scalar = [[[fn(p, float(x), float(y), -float(z)) for z in g] for y in g] for x in g]
            assert np.array_equal(_bits(got), _bits(scalar)), fn.__name__

    @pytest.mark.parametrize("p", _ARRAY_REGIMES[:2], ids=str)
    @pytest.mark.parametrize("which", ["Ja", "Jb", "Ka", "Kb", "Ia", "Ib"])
    def test_marginals(self, p, which):
        alphas, betas = _branch_points(p)
        v = alphas if which[1] == "a" else betas
        got = rate_marginal(p, which, v)
        assert got.shape == v.shape
        assert np.array_equal(_bits(got), _bits([rate_marginal(p, which, float(x)) for x in v]))

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_float_path_matches_the_array_path(self, p):
        # Python floats run the closed forms in plain float arithmetic, and
        # 1-element arrays run them in numpy: every point must get the same
        # bits, as a Python float.  The grids hold alpha = 0, alpha = 2 and
        # beta = 0 from _branch_points, where J and K skip the branch that
        # would divide by zero, and x y = 1 or y z = 1 at (0.5, 2), (1, 1)
        # and (2, 0.5) of the cone grid, where the float arithmetic divides
        # by zero and the numpy path takes over.
        alphas, betas = (v.tolist() + _EXTREMES for v in _branch_points(p))
        cone = [-1.0, 0.0, 0.5, 1.0, 2.0, *_EXTREMES]
        calls = [
            (fn, (), pt)
            for fn in (rate_J, rate_K, rate_I_mle)
            for pt in itertools.product(alphas, betas)
        ]
        calls += [(rate_pair, (), pt) for pt in itertools.product(cone, repeat=2)]
        calls += [
            (fn, (), pt)
            for fn in (rate_triplet_x, rate_triplet_L)
            for pt in itertools.product(cone, repeat=3)
        ]
        calls += [(fn, (), (x,)) for fn in (rate_S, rate_Sigma, rate_V) for x in alphas + betas]
        calls += [
            (rate_marginal, (which,), (v,))
            for which in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib")
            for v in (alphas if which[1] == "a" else betas)
        ]
        mismatched = []
        for fn, head, coords in calls:
            value = fn(p, *head, *coords)
            array = fn(p, *head, *(np.array([c]) for c in coords))
            if type(value) is not float or _bits(value) != _bits(array)[0]:
                mismatched.append((fn.__name__, *head, coords, value, array))
        assert mismatched == []

    def test_float_helpers_follow_numpy(self):
        # On Python floats the helpers return what numpy returns: NaN
        # propagates through _maximum and _minimum, a tie returns the second
        # argument (which fixes the sign of a zero), the root of a negative
        # is NaN and a power that overflows is +inf.  A NaN's sign and
        # payload are not compared.
        vals = [-2.0, -0.0, 0.0, 1e-300, 0.5, 2.0, 1e200, INF, -INF, NAN]
        cases = [(_maximum, np.maximum, pt) for pt in itertools.product(vals, repeat=2)]
        cases += [(_minimum, np.minimum, pt) for pt in itertools.product(vals, repeat=2)]
        cases += [(_sqrt, np.sqrt, (x,)) for x in vals]
        cases += [(_sq, lambda x: np.float_power(x, 2.0), (x,)) for x in vals]
        with np.errstate(all="ignore"):
            got = [helper(*args) for helper, _, args in cases]
            want = [ufunc(*(np.array([x]) for x in args))[0] for _, ufunc, args in cases]
        assert all(type(g) is float for g in got)
        same = [math.isnan(g) and math.isnan(w) or _bits(g) == _bits(w) for g, w in zip(got, want)]
        assert [case for case, ok in zip(cases, same) if not ok] == []

    @pytest.mark.parametrize("p", _ARRAY_REGIMES, ids=str)
    def test_region_constants_are_quiet_on_arrays(self, p):
        # Outside beta_b's domain its root is of a negative (NaN), at
        # alpha = (a^2 + 32)/8 it is 0 (-inf), and past |alpha| ~ 1.3e154
        # C_alpha's square overflows (+inf, where beta_b stays finite below
        # alpha_a).  Arrays give the float values with no warning (a
        # RuntimeWarning fails this module); a NaN's sign is not compared.
        rc = region_constants(p)
        alphas = [
            -1e200, -1e155, -2.0, 0.0, rc.alpha_a, (p.a * p.a + 32.0) / 8.0, 10.0, 1e155, 1e200,
        ]
        for fn in (rc.C_alpha, rc.beta_b):
            np.testing.assert_array_equal(fn(np.array(alphas)), [fn(x) for x in alphas])
        assert math.isnan(rc.beta_b(10.0)) and rc.C_alpha(1e200) == INF
        assert 0.0 < rc.beta_b(-1e200) < INF

    def test_scalar_inputs_give_python_floats(self, params44):
        calls = [
            (rate_S, (3.0,)), (rate_Sigma, (0.5,)), (rate_V, (1,)), (rate_pair, (4.0, 1.0)),
            (rate_triplet_x, (1.0, 4.0, 1.0)), (rate_triplet_L, (4.0, 1.0, -1.0)),
            (rate_J, (3, -1)), (rate_K, (np.float64(3.0), -1.0)),
            (rate_I_mle, (np.array(3.0), -1.0)), (rate_J, (INF, -1.0)),
            (rate_marginal, ("Ja", 2.0)), (rate_marginal, ("Kb", -1.0)),
            (rate_marginal, ("Ib", NAN)),
        ]
        for fn, coords in calls:
            assert type(fn(params44, *coords)) is float, (fn.__name__, coords)

    def test_non_finite_table_as_arrays(self, params44):
        groups = defaultdict(list)
        for fn, coords, expected in _NON_FINITE_CASES:
            # rate_I_infsup takes floats only; a refused row has no value.
            if fn is rate_I_infsup or isinstance(expected, Exception):
                continue
            key = (fn, coords[0]) if fn is rate_marginal else (fn,)
            groups[key].append(coords[len(key) - 1:])
        for key, rows in groups.items():
            fn, *selector = key
            got = fn(params44, *selector, *map(np.array, zip(*rows)))
            scalar = [fn(params44, *selector, *row) for row in rows]
            assert np.array_equal(_bits(got), _bits(scalar)), key

    def test_squares_are_libm_pow(self, params44):
        # Python's float ** 2 is libm pow, and numpy's array ** 2 is x * x,
        # which differs from it in the last bit at these inputs.  Array and
        # float calls must both give the Python-float formula.
        a, b = params44.a, params44.b
        rng = np.random.default_rng(11)

        def differs(base: float) -> bool:
            return base**2 != base * base

        xs = [x for x in rng.uniform(0.01, 12.0, 200_000).tolist() if differs(a + b * x)]
        ys = [y for y in rng.uniform(0.01, 3.0, 200_000).tolist() if differs((a - 2.0) * y + b)]
        assert len(xs) >= 20 and len(ys) >= 20
        want = [(a + b * x) ** 2 / (8.0 * x) for x in xs]
        assert rate_S(params44, np.array(xs)).tolist() == want
        assert [rate_S(params44, x) for x in xs] == want
        want = [((a - 2.0) * y + b) ** 2 / (8.0 * y) for y in ys]
        assert rate_Sigma(params44, np.array(ys)).tolist() == want
        assert [rate_Sigma(params44, y) for y in ys] == want
        pts = [
            (al, be)
            for al, be in zip(
                rng.uniform(2.1, 7.0, 200_000).tolist(), rng.uniform(-3.0, -0.05, 200_000).tolist()
            )
            if differs(1.0 + (2.0 - al) * b / (be * (a - 2.0))) or differs(1.0 - b / be)
        ]
        assert len(pts) >= 20

        def j_formula(al: float, be: float) -> float:
            first = ((a - 2.0) ** 2 * be / (8.0 * (2.0 - al))) * (
                1.0 + (2.0 - al) * b / (be * (a - 2.0))
            ) ** 2
            if be >= b / 3.0:
                return first + 2.0 * be - b
            return first - 0.25 * be * (1.0 - b / be) ** 2

        want = [j_formula(x, y) for x, y in pts]
        assert rate_J(params44, *map(np.array, zip(*pts))).tolist() == want
        assert [rate_J(params44, x, y) for x, y in pts] == want


# Input checks and edge cases of the rate layer: (id, call on (4, -1), the
# value it returns or the error it raises).
_INPUT_CHECKS = [
    ("marginal_inf_numeric axis", lambda p: marginal_inf_numeric(p, "J", "c", 1.0),
     DomainError("axis must be 'a' or 'b', got 'c'")),
    # At beta = 0 each surface is finite only at its apex (apex, 0).
    ("J at beta 0", lambda p: marginal_inf_numeric(p, "J", "b", 0.0),
     rate_J(ProcessParams(4.0, -1.0), 2.0, 0.0)),
    ("K at beta 0", lambda p: marginal_inf_numeric(p, "K", "b", 0.0),
     rate_K(ProcessParams(4.0, -1.0), 0.0, 0.0)),
]


@pytest.mark.parametrize(
    "call, expected", [c[1:] for c in _INPUT_CHECKS], ids=[c[0] for c in _INPUT_CHECKS]
)
def test_input_checks(params44, call, expected):
    if not isinstance(expected, Exception):
        assert call(params44) == expected
        return
    with pytest.raises(type(expected)) as info:
        call(params44)
    assert str(info.value) == str(expected)


# The public rate behind each entry of the rate table: the marginals through
# rate_marginal, whose callables the table holds.
_PUBLIC_RATES = {
    "J": rate_J,
    "K": rate_K,
    "I": rate_I_mle,
    **{m: partial(lambda m, p, v: rate_marginal(p, m, v), m)
       for m in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib")},
    "S": rate_S,
    "Sigma": rate_Sigma,
    "V": rate_V,
    "pair": rate_pair,
    "triplet_x": rate_triplet_x,
    "triplet_L": rate_triplet_L,
}

# Four values per coordinate: inside the domain, on or near an edge, outside
# it and infinite.
_TABLE_POINTS = {
    "alpha": [3.0, 2.5, -1.0, math.inf],
    "beta": [-0.5, -2.0, 0.3, -math.inf],
    "x": [1.0, 3.0, 0.4, math.inf],
    "y": [3.0, 0.8, 0.2, math.inf],
    "z": [0.8, 0.5, 2.0, math.inf],
    "t": [-0.5, 0.0, -2.0, -math.inf],
    "v": [1.5, 0.2, 4.0, math.inf],
}


@pytest.mark.parametrize("name", list(rates.RATES))
@pytest.mark.parametrize("ab", [(4.0, -1.0), (2.5, -0.5)], ids=["4,-1", "2.5,-0.5"])
def test_rate_table_gives_the_public_rates_bits(name, ab):
    params = ProcessParams(*ab)
    rate, keys = rates.RATES[name]
    public = _PUBLIC_RATES[name]
    columns = [_TABLE_POINTS[k] for k in keys]
    for point in zip(*columns):
        assert rate(params, *point).hex() == public(params, *point).hex(), point
    arrays = [np.array(c) for c in columns]
    assert rate(params, *arrays).tobytes() == public(params, *arrays).tobytes()
