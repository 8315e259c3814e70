"""Limiting CGF, its gradient, the variational transform, and the MC check."""

from __future__ import annotations

import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy import optimize

from cir_ldp import (
    BoundaryError,
    CgfPoint,
    ProcessParams,
    cgf_finite_T_mc,
    cgf_gradient,
    cgf_limit,
    dual_vars,
    lambda_star,
    legendre_transform_numeric,
    rate_pair,
    rate_triplet_L,
    rate_triplet_x,
)
from cir_ldp.cgf import _lambda_star_array, _legendre_solve

# Every evaluation here is quiet: a RuntimeWarning fails the test.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INF = float("inf")
NAN = float("nan")

#: Gaps y z - 1 to the edge of the admissible cone, where Lambda* blows up.
_CONE_EDGE_GAPS = (1e-2, 1e-4, 1e-6, 1e-9)

#: (x, y, z, t) -> lambda_star at (a, b) = (4, -1): nan in, nan out; +inf
#: outside the cone, at an infinite coordinate inside it, and where finite
#: coordinates overflow; finite where only the product y z overflows.
_NON_FINITE_CASES = [
    ((NAN, 2.0, 1.0, -1.0), NAN),
    ((1.0, NAN, 1.0, -1.0), NAN),
    ((1.0, 2.0, NAN, -1.0), NAN),
    ((1.0, 2.0, 1.0, NAN), NAN),
    ((-1.0, NAN, 1.0, -1.0), NAN),
    ((1.0, 2.0, NAN, 1.0), NAN),
    ((INF, 2.0, 1.0, -1.0), INF),
    ((1.0, INF, 1.0, -1.0), INF),
    ((1.0, 2.0, INF, -1.0), INF),
    ((1.0, 2.0, 1.0, -INF), INF),
    ((0.0, INF, INF, 0.0), INF),
    ((-INF, 2.0, 1.0, -1.0), INF),
    ((1.0, 2.0, 1.0, INF), INF),
    ((1.0, -INF, 1.0, -1.0), INF),
    ((-1.0, 2.0, 1.0, -1.0), INF),
    ((1.0, 2.0, 1.0, 1.0), INF),
    ((1.0, 0.0, 1.0, -1.0), INF),
    ((1.0, 2.0, 0.0, -1.0), INF),
    ((1.0, 2.0, 0.5, -1.0), INF),
    ((1.0, 0.4, 1.0, -1.0), INF),
    ((1e200, 2.0, 1.0, -1.0), INF),
    ((0.0, 2.0, 1.0, -1e200), INF),
    # y b^2/8 + (a-2)^2 z/8 + a b/4 + z/(2(yz-1)) in 60-digit mpmath:
    # 6.25000000000000004080e159.
    ((0.0, 1e160, 1e160, 0.0), 6.25e159),
]

#: (x, y, z, t) -> legendre_transform_numeric at (a, b) = (4, -1): nan when
#: any coordinate is nan, else +inf when any coordinate is infinite, when
#: x < 0 or t > 0 (Lambda does not change along -lam or +gamma), and outside
#: the cone y > 0, z > 0, y z > 1, where the objective is unbounded.
_NUMERIC_NON_FINITE_CASES = [
    ((NAN, 2.0, 1.0, -1.0), NAN),
    ((1.0, NAN, 1.0, -1.0), NAN),
    ((1.0, 2.0, NAN, -1.0), NAN),
    ((1.0, 2.0, 1.0, NAN), NAN),
    ((INF, 2.0, NAN, -1.0), NAN),
    ((INF, 2.0, 1.0, -1.0), INF),
    ((-INF, 2.0, 1.0, -1.0), INF),
    ((1.0, INF, 1.0, -1.0), INF),
    ((1.0, -INF, 1.0, -1.0), INF),
    ((1.0, 2.0, INF, -1.0), INF),
    ((1.0, 2.0, -INF, -1.0), INF),
    ((1.0, 2.0, 1.0, INF), INF),
    ((1.0, 2.0, 1.0, -INF), INF),
    ((-1e-3, 2.0, 1.0, -0.5), INF),
    ((0.8, 2.0, 1.0, 1e-3), INF),
    ((0.8, 0.0, 1.0, -0.5), INF),
    ((0.8, 2.0, 0.0, -0.5), INF),
    ((0.8, 2.0, 0.4, -0.5), INF),
    ((0.0, 2.0, 0.5, 0.0), INF),
    ((0.8, 2.0, 0.5, -0.5), INF),
]

#: ((a, b), (x, y, z, t), float.hex of lambda_star).  On the faces x = 0 and
#: t = 0 the Newton term k = -x t / 2 is +-0.0 and the value is h(u0); the
#: rows there cover k = -0.0 (t = 0) and +0.0 (x = 0), a product y z that
#: overflows, and an h that overflows to +inf.  The last rows are off both
#: faces, where the Newton ascent runs.
_LAMBDA_STAR_GOLDEN = [
    ((4.0, -1.0), (1.0, 4.0, 0.5, 0.0), "0x1.2000000000000p-1"),
    ((4.0, -1.0), (0.3, 3.0, 1.0, 0.0), "0x1.5d32617c1bda2p-3"),
    ((3.0, -2.0), (1.5, 2.0, 0.8, 0.0), "0x1.de22222222222p+1"),
    ((4.0, -1.0), (0.0, 4.0, 0.5, -1.0), "0x1.4000000000000p+1"),
    ((3.0, -2.0), (0.0, 2.0, 1.3, -0.2), "0x1.0d4fdf3b645a6p-3"),
    ((4.0, -1.0), (0.0, 3.0, 0.8, 0.0), "0x1.f15f15f15f158p-5"),
    ((4.0, -1.0), (0.5, 1e200, 1e200, 0.0), "0x1.a20df0dcd3af0p+663"),
    ((4.0, -1.0), (0.0, 1e200, 1e170, -1.0), "0x1.4e718d7d7625ap+661"),
    ((4.0, -1.0), (0.0, 1.0, 1e308, 0.0), "inf"),
    ((4.0, -1.0), (0.0, 1.0, 1e308, -1.0), "inf"),
    ((3.0, -2.0), (0.3, 4.0, 1.3, -0.2), "0x1.0c23e6b8caccbp+0"),
    ((4.0, -1.0), (0.7, 2.0, 1.0, -0.4), "0x1.d697f4882d59cp+0"),
    ((4.0, -1.0), (2.0, 5.0, 0.9, -1.5), "0x1.2646c57c3badcp+4"),
    ((4.0, -1.0), (1.0, 2.0, 1.0, -1.0), "0x1.fd8e106ee25b9p+2"),
]

#: ((a, b), (x, y, z, t), float.hex of legendre_transform_numeric, stage of
#: _legendre_solve), one row per stage of the solve.
_NUMERIC_GOLDEN = [
    ((4.0, -1.0), (2.5, 3.0, 1.3, 0.0), "0x1.59afab4152fabp+2", "t0_face"),
    ((4.0, -1.0), (0.0, 2.0, 1.0, -0.5), "0x1.87ffffffffffep-1", "x0_face"),
    ((4.0, -1.0), (0.0, 2.0, 1.0, 0.0), "0x1.0000000000000p-2", "pair"),
    ((4.0, -1.0), (0.8, 2.0, 1.7, -1.6), "0x1.50a1a00517aaap+3", "interior"),
    ((3.0, -2.0), (0.8, 2.0, 1.5, -0.5), "0x1.144e63edcd709p+1", "interior"),  # test_other_regime
    ((4.0, -1.0), (1.0, 2.0, 1.0, 0.5), "inf", "exterior"),  # t > 0
    ((4.0, -1.0), (0.0, 2.0, 0.5, 0.0), "inf", "unbounded"),  # y z = 1
]


def _brute_force_lambda_star(params, x, y, z, t):
    # Independent maximiser of the dual objective h over d, f > 0: a
    # log-lattice scan, then a Nelder-Mead polish in (log d, log f) from the
    # best two nodes.
    a, b = params.a, params.b

    def h(log_d, log_f):
        d, f = np.exp(log_d), np.exp(log_f)
        phi = 2.0 * f + a + 2.0
        return (
            (t * np.sqrt(phi) - x * np.sqrt(d - b)) ** 2 / 4.0
            + y * (b * b - d * d) / 8.0
            + ((a - 2.0) ** 2 - 4.0 * f * f) * z / 8.0
            + d * (1.0 + f) / 2.0
            + a * b / 4.0
        )

    axis = np.linspace(np.log(1e-3), np.log(1e5), 41)
    lattice = h(axis[:, None], axis[None, :])
    best = np.argsort(lattice, axis=None)[::-1][:2]
    values = []
    for i, j in zip(*np.unravel_index(best, lattice.shape)):
        start = np.array([axis[i], axis[j]])
        res = optimize.minimize(
            lambda u: -h(u[0], u[1]),
            start,
            method="Nelder-Mead",
            options={
                # steps of 0.2 in log d and log f: scipy's default simplex
                # degenerates at a zero coordinate (log f = 0)
                "initial_simplex": start + np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]]),
                "xatol": 1e-12,
                "fatol": 1e-15,
                "maxiter": 4000,
                "maxfev": 4000,
            },
        )
        values.append(-float(res.fun))
    return max(values)


class TestCgfLimit:
    def test_zero_at_origin(self, regimes):
        for p in regimes:
            assert cgf_limit(p, CgfPoint(0.0, 0.0, 0.0, 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_domain_boundary_maps_to_inf(self, params44):
        b, a = params44.b, params44.a
        assert cgf_limit(params44, CgfPoint(0, b * b / 8.0, 0, 0)) == INF
        assert cgf_limit(params44, CgfPoint(0, 0, (a - 2.0) ** 2 / 8.0, 0)) == INF
        assert cgf_limit(params44, CgfPoint(0, 1.0, 0, 0)) == INF

    def test_nan_in_any_coordinate_gives_nan(self, params44):
        # Inside the domain, out of it (mu and nu past their bounds) and at
        # the origin: a nan coordinate never yields a number or +inf.
        for base in ((0.0, 0.0, 0.0, 0.0), (-1.0, 5.0, 5.0, 1.0), (0.5, -0.3, -0.2, -0.4)):
            for i in range(4):
                coords = list(base)
                coords[i] = math.nan
                assert math.isnan(cgf_limit(params44, CgfPoint(*coords))), coords

    def test_quadratic_terms_by_sector(self, params44):
        b = params44.b
        dv = dual_vars(params44, -0.5, -0.5)
        base = cgf_limit(params44, CgfPoint(0.0, -0.5, -0.5, 0.0))
        lam_side = cgf_limit(params44, CgfPoint(1.2, -0.5, -0.5, 0.0))
        assert lam_side == pytest.approx(base + 1.2**2 / (dv.d - b), rel=1e-13)
        gam_side = cgf_limit(params44, CgfPoint(0.0, -0.5, -0.5, -0.9))
        assert gam_side == pytest.approx(base + 0.9**2 / dv.phi, rel=1e-13)
        # For lam <= 0 and gamma >= 0 neither quadratic term is active.
        assert cgf_limit(params44, CgfPoint(-1.2, -0.5, -0.5, 0.7)) == pytest.approx(base, rel=1e-13)

    def test_continuity_across_switching_surface(self, params44):
        b = params44.b
        dv = dual_vars(params44, -0.4, -0.7)
        lam = 0.8
        gam = -lam * math.sqrt(dv.phi / (dv.d - b))
        eps = 1e-9
        inner = cgf_limit(params44, CgfPoint(lam, -0.4, -0.7, gam + eps))
        outer = cgf_limit(params44, CgfPoint(lam, -0.4, -0.7, gam - eps))
        assert inner == pytest.approx(outer, abs=1e-7)

    def test_monotone_in_mu_and_nu(self, params44):
        vals = [cgf_limit(params44, CgfPoint(0.3, m, -0.2, -0.1)) for m in (-2.0, -1.0, -0.3)]
        assert vals[0] < vals[1] < vals[2]
        vals = [cgf_limit(params44, CgfPoint(0.3, -0.2, n, -0.1)) for n in (-2.0, -1.0, -0.3)]
        assert vals[0] < vals[1] < vals[2]


class TestGradient:
    def test_at_origin_equals_ergodic_means(self, regimes):
        for p in regimes:
            g = cgf_gradient(p, CgfPoint(0.0, 0.0, 0.0, 0.0))
            expect = np.array([0.0, -p.a / p.b, -p.b / (p.a - 2.0), 0.0])
            np.testing.assert_allclose(g, expect, rtol=1e-12, atol=1e-12)

    def test_matches_central_differences(self, params44):
        rng = np.random.default_rng(23)
        b, a = params44.b, params44.a
        h = 1e-6
        checked = 0
        while checked < 25:
            lam = float(rng.uniform(-2.0, 2.0))
            gam = float(rng.uniform(-2.0, 2.0))
            mu = float(rng.uniform(b * b / 8.0 - 3.0, b * b / 8.0 - 0.1))
            nu = float(rng.uniform((a - 2.0) ** 2 / 8.0 - 3.0, (a - 2.0) ** 2 / 8.0 - 0.1))
            p = CgfPoint(lam, mu, nu, gam)
            try:
                g = cgf_gradient(params44, p, tol=1e-4)
            except BoundaryError:
                continue
            theta = np.array([lam, mu, nu, gam])
            for i in range(4):
                up = theta.copy()
                dn = theta.copy()
                up[i] += h
                dn[i] -= h
                fd = (
                    cgf_limit(params44, CgfPoint(*up)) - cgf_limit(params44, CgfPoint(*dn))
                ) / (2.0 * h)
                assert g[i] == pytest.approx(fd, rel=2e-6, abs=2e-6)
            checked += 1

    def test_boundary_guards(self, params44):
        b, a = params44.b, params44.a
        with pytest.raises(BoundaryError):
            cgf_gradient(params44, CgfPoint(0.0, b * b / 8.0 - 1e-12, 0.0, 0.0))
        with pytest.raises(BoundaryError):
            cgf_gradient(params44, CgfPoint(0.0, 0.0, (a - 2.0) ** 2 / 8.0 - 1e-12, 0.0))
        dv = dual_vars(params44, -0.4, -0.7)
        lam = 0.8
        gam = -lam * math.sqrt(dv.phi / (dv.d - b))
        with pytest.raises(BoundaryError):
            cgf_gradient(params44, CgfPoint(lam, -0.4, -0.7, gam))

    def test_nan_in_any_coordinate_gives_nan_vector(self, params44):
        # Same bases as cgf_limit's nan test; the boundary guards must not
        # raise, and no finite component may come back.
        for base in ((0.0, 0.0, 0.0, 0.0), (-1.0, 5.0, 5.0, 1.0), (0.5, -0.3, -0.2, -0.4)):
            for i in range(4):
                coords = list(base)
                coords[i] = math.nan
                g = cgf_gradient(params44, CgfPoint(*coords))
                assert g.shape == (4,) and np.isnan(g).all(), coords

    def test_steepness_near_mu_boundary(self, params44):
        p = CgfPoint(0.0, params44.b**2 / 8.0 - 1e-8, 0.0, 0.0)
        g = cgf_gradient(params44, p, tol=1e-10)
        assert float(np.linalg.norm(g)) > 1e3


class TestLambdaStar:
    def test_zero_at_ergodic_limits(self, regimes):
        for p in regimes:
            v = lambda_star(p, 0.0, -p.a / p.b, -p.b / (p.a - 2.0), 0.0)
            assert abs(v) <= 1e-12

    def test_slices_match_closed_rates(self, params44):
        pts = [(3.0, 0.8), (4.5, 0.4), (2.0, 1.5)]
        for y, z in pts:
            assert lambda_star(params44, 0.0, y, z, 0.0) == pytest.approx(
                rate_pair(params44, y, z), abs=1e-12
            )
        assert lambda_star(params44, 1.0, 4.0, 0.5, 0.0) == pytest.approx(
            rate_triplet_x(params44, 1.0, 4.0, 0.5), abs=1e-12
        )
        assert lambda_star(params44, 0.0, 4.0, 0.5, -1.0) == pytest.approx(
            rate_triplet_L(params44, 4.0, 0.5, -1.0), abs=1e-12
        )

    def test_nonnegative_on_admissible_points(self, params44):
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = float(rng.uniform(0.0, 2.5))
            y = float(rng.uniform(2.0, 6.0))
            z = float(rng.uniform(0.6, 1.7))
            t = float(rng.uniform(-1.6, 0.0))
            assert lambda_star(params44, x, y, z, t) >= -1e-12

    @pytest.mark.parametrize("gap", _CONE_EDGE_GAPS)
    def test_slices_match_closed_rates_at_cone_edge(self, gap):
        # Lambda* grows like 1/(yz - 1); the slices x = 0 and t = 0 have
        # closed forms to hold it to.
        for a, b in ((4.0, -1.0), (3.0, -2.0), (2.5, -0.5), (6.0, -3.0)):
            p = ProcessParams(a, b)
            for y in (0.7, 2.0, 5.0):
                z = (1.0 + gap) / y
                for t in (-0.3, -1.0, -2.5):
                    closed = float(rate_triplet_L(p, y, z, t))
                    got = lambda_star(p, 0.0, y, z, t)
                    assert got == pytest.approx(closed, rel=1e-9), (a, b, y, z, t)
                for x in (0.4, 1.5):
                    closed = float(rate_triplet_x(p, x, y, z))
                    got = lambda_star(p, x, y, z, 0.0)
                    assert got == pytest.approx(closed, rel=1e-9), (a, b, x, y, z)

    def test_grows_like_inverse_gap_at_cone_edge(self):
        # With y a power of 2, the gap y z - 1 is exact in floats, and
        # gap * Lambda* is smooth in it: at gaps near 1e-12 and 2e-12 it
        # agrees far below the rounding of the large terms of h, which are of
        # order 1/gap^2.
        for a, b in ((4.0, -1.0), (3.0, -2.0), (2.5, -0.5), (6.0, -3.0)):
            p = ProcessParams(a, b)
            for y in (0.5, 2.0, 4.0):
                for x, t in ((0.7, -0.4), (2.0, -1.5)):
                    zs = [(1.0 + gap) / y for gap in (1e-12, 2e-12)]
                    scaled = [(y * z - 1.0) * lambda_star(p, x, y, z, t) for z in zs]
                    assert scaled[0] == pytest.approx(scaled[1], rel=1e-9), (a, b, x, y, t)

    def test_matches_brute_force_maximiser(self, regimes):
        rng = np.random.default_rng(8)
        for p in regimes:
            for _ in range(3):
                x = float(rng.uniform(0.0, 2.5))
                t = float(rng.uniform(-2.0, 0.0))
                y = float(np.exp(rng.uniform(np.log(0.3), np.log(6.0))))
                z = (1.0 + float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))) / y
                got = lambda_star(p, x, y, z, t)
                oracle = _brute_force_lambda_star(p, x, y, z, t)
                assert got == pytest.approx(oracle, rel=1e-9, abs=1e-9), (p, x, y, z, t)
                assert got >= oracle - 1e-12 * max(1.0, abs(oracle))

    def test_golden_bits(self):
        got = [
            lambda_star(ProcessParams(*ab), *coords).hex() for ab, coords, _ in _LAMBDA_STAR_GOLDEN
        ]
        assert got == [bits for _, _, bits in _LAMBDA_STAR_GOLDEN]

    @pytest.mark.parametrize(("coords", "expected"), _NON_FINITE_CASES)
    def test_non_finite_policy(self, params44, coords, expected):
        got = lambda_star(params44, *coords)
        if math.isnan(expected):
            assert math.isnan(got)
        elif math.isinf(expected):
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)])
    def test_array_pass_gives_the_float_bits(self, a, b):
        # Face points run as one numpy pass, any other point through the
        # float call; each element must get the float call's bits, under the
        # same non-finite policy.
        p = ProcessParams(a, b)
        just_above_one = math.nextafter(1.0, 2.0)
        rows = [coords for coords, _ in _NON_FINITE_CASES]
        rows += [coords for _, coords, _ in _LAMBDA_STAR_GOLDEN]
        rows += [
            # y z overflows, on both faces and off them; with x^2 ~ y or
            # t^2 ~ z, u0 = M^-1 l adds to h(u0) as much as y b^2 / 8 does
            (0.0, 1e200, 1e200, 0.0), (0.5, 1e300, 1e10, 0.0), (0.0, 1e160, 1e160, -3.0),
            (0.0, 1.0, 1e308, -1.0), (0.3, 1e200, 1e200, -0.2),
            (0.0, 1e160, 1e160, -1e80), (1e80, 1e160, 1e160, 0.0),
            # y z -> 1+
            (0.0, 2.0, 0.5 * just_above_one, 0.0), (1.0, 4.0, 0.25 * just_above_one, 0.0),
            (0.0, 3.0, (1.0 + 1e-12) / 3.0, -0.5), (0.2, 3.0, (1.0 + 1e-9) / 3.0, -0.5),
            # outside the cone: x < 0, t > 0, y <= 0, z <= 0, y z <= 1
            (-1e-300, 2.0, 1.0, 0.0), (0.0, 2.0, 1.0, 1e-300), (0.0, -2.0, 1.0, 0.0),
            (0.0, 2.0, -0.0, 0.0), (0.0, 2.0, 0.5, 0.0), (0.0, 0.4, 1.0, -1.0),
            # signed zeros on the faces, and tiny products x t
            (-0.0, 2.0, 1.0, -0.0), (0.0, 2.0, 1.0, -0.0), (-0.0, 2.0, 1.0, -1.0),
            (1e-200, 2.0, 1.0, -1e-200), (1e-160, 2.0, 1.0, -1e-160),
            # nan and +-inf, on and off the faces
            (NAN, 2.0, 1.0, 0.0), (0.0, NAN, 1.0, 0.0), (0.0, 2.0, 1.0, NAN),
            (INF, 2.0, 1.0, 0.0), (0.0, INF, 1.0, 0.0), (0.0, 2.0, 1.0, -INF),
            (0.0, -INF, 1.0, 0.0), (-INF, 2.0, 1.0, 0.0), (0.0, 2.0, 1.0, INF),
            (1.0, 2.0, INF, -1.0), (0.0, INF, NAN, 0.0),
        ]
        x, y, z, t = (np.array(c) for c in zip(*rows))
        got = _lambda_star_array(p, x, y, z, t)
        floats = [lambda_star(p, *coords) for coords in rows]
        assert got.shape == (len(rows),)
        mismatched = [
            (coords, g, f)
            for coords, g, f in zip(rows, got.tolist(), floats)
            if g.hex() != f.hex()
        ]
        assert mismatched == []
        # Float coordinates broadcast against array ones.
        ys = np.linspace(1.5, 6.0, 7)
        got = _lambda_star_array(p, 0.0, ys, 0.8, -0.5)
        assert got.tolist() == [lambda_star(p, 0.0, v, 0.8, -0.5) for v in ys.tolist()]


class TestNumericTransform:
    def test_matches_closed_form_at_spot_points(self, params44):
        pts = [
            (0.0, 4.0, 0.5, 0.0),
            (0.5, 3.0, 0.8, -0.3),
            (1.5, 6.0, 1.0, -1.6),
            (2.5, 2.0, 0.6, -1.6),
        ]
        for x, y, z, t in pts:
            closed = lambda_star(params44, x, y, z, t)
            numeric = legendre_transform_numeric(params44, x, y, z, t)
            assert numeric == pytest.approx(closed, abs=1e-9)

    def test_other_regime(self):
        p = ProcessParams(3.0, -2.0)
        closed = lambda_star(p, 0.8, 2.0, 1.5, -0.5)
        numeric = legendre_transform_numeric(p, 0.8, 2.0, 1.5, -0.5)
        assert numeric == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize(("coords", "expected"), _NUMERIC_NON_FINITE_CASES)
    def test_non_finite_policy(self, params44, coords, expected):
        got = legendre_transform_numeric(params44, *coords)
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert got == expected

    def test_golden_bits(self):
        got = [
            legendre_transform_numeric(ProcessParams(*ab), *coords).hex()
            for ab, coords, _, _ in _NUMERIC_GOLDEN
        ]
        assert got == [bits for _, _, bits, _ in _NUMERIC_GOLDEN]
        stages = [_legendre_solve(*ab, *coords)[2] for ab, coords, _, _ in _NUMERIC_GOLDEN]
        assert stages == [stage for _, _, _, stage in _NUMERIC_GOLDEN]

    def test_mixing_weight(self):
        # s = 1 on the t = 0 face, 0 on the x = 0 face, in (0, 1) between,
        # and p = s grad Lambda_1 + (1 - s) grad Lambda_2 at theta*.
        for coords, want in [((2.5, 3.0, 1.3, 0.0), 1.0), ((0.0, 2.0, 1.0, -0.5), 0.0)]:
            assert _legendre_solve(4.0, -1.0, *coords)[3] == want
        x, t = 0.8, -1.6
        _, (lam, mu, nu, gamma), _, s = _legendre_solve(4.0, -1.0, x, 2.0, 1.7, t)
        d, f, phi, _ = astuple(dual_vars(ProcessParams(4.0, -1.0), mu, nu))
        assert 0.0 < s < 1.0
        assert s * 2.0 * lam / (d + 1.0) == pytest.approx(x, rel=1e-13)
        assert (1.0 - s) * 2.0 * gamma / phi == pytest.approx(t, rel=1e-13)

    @pytest.mark.parametrize("gap", _CONE_EDGE_GAPS[:3])
    @pytest.mark.parametrize("x", [0.0, 0.8])
    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_cone_edge(self, params44, gap, x, t):
        # Lambda* grows like 1/(y z - 1), and so does the rounding of the
        # objective <theta*, p> - Lambda(theta*).
        y, z = 2.0, (1.0 + gap) / 2.0
        closed = lambda_star(params44, x, y, z, t)
        numeric = legendre_transform_numeric(params44, x, y, z, t)
        assert numeric == pytest.approx(closed, rel=1e-13 / (y * z - 1.0))

    @pytest.mark.parametrize("y, z", [(1e5, 1e5), (1e6, 1e7), (3e6, 3e5)])
    @pytest.mark.parametrize("x, t", [(0.0, 0.0), (0.8, 0.0), (0.0, -0.5), (0.8, -0.5)])
    def test_deep_in_the_cone(self, params44, x, y, z, t):
        # With y z >= 1e10, mu* and nu* sit within an ulp or so of b^2/8 and
        # (a-2)^2/8; the solve must still converge in the other coordinate.
        closed = lambda_star(params44, x, y, z, t)
        numeric = legendre_transform_numeric(params44, x, y, z, t)
        assert numeric == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -2.0)])
    def test_hessian_at_the_centre_inverts_the_cgf_hessian(self, a, b):
        # Central second differences (step 1e-4): the Hessian of
        # Lambda*(0, y, z, 0) at the centre (-a/b, -b/(a-2)) is the inverse
        # of the Hessian of Lambda(0, mu, nu, 0) at 0, [[16, -2], [-2, 0.5]]
        # at (4, -1).
        p, h = ProcessParams(a, b), 1e-4

        def hessian(fn, c):
            out = np.empty((2, 2))
            for i, j in ((0, 0), (0, 1), (1, 1)):
                ei, ej = h * np.eye(2)[i], h * np.eye(2)[j]
                if i == j:
                    out[i, i] = (fn(*(c + ei)) - 2.0 * fn(*c) + fn(*(c - ei))) / h**2
                else:
                    out[i, j] = out[j, i] = (
                        fn(*(c + ei + ej)) - fn(*(c + ei - ej))
                        - fn(*(c - ei + ej)) + fn(*(c - ei - ej))
                    ) / (4.0 * h * h)
            return out

        star = hessian(
            lambda y, z: legendre_transform_numeric(p, 0.0, y, z, 0.0),
            np.array([-a / b, -b / (a - 2.0)]),
        )
        inverse = np.linalg.inv(
            hessian(lambda mu, nu: cgf_limit(p, CgfPoint(0.0, mu, nu, 0.0)), np.zeros(2))
        )
        assert np.abs(star - inverse).max() <= 1e-5 * np.abs(inverse).max()


class TestFiniteTMc:
    def test_zero_point_is_exact(self, params44):
        est, se = cgf_finite_T_mc(params44, CgfPoint(0.0, 0.0, 0.0, 0.0), 5.0, 200, 3)
        assert est == 0.0
        assert se == 0.0

    def test_deterministic_and_worker_invariant(self, params44):
        p = CgfPoint(0.05, -0.05, -0.05, -0.05)
        r1 = cgf_finite_T_mc(params44, p, 4.0, 600, 19, n_steps=400, n_workers=1)
        r2 = cgf_finite_T_mc(params44, p, 4.0, 600, 19, n_steps=400, n_workers=2)
        assert r1 == r2

    def test_small_argument_self_consistency(self, params44):
        p = CgfPoint(0.05, -0.05, -0.05, -0.05)
        est, se = cgf_finite_T_mc(params44, p, 10.0, 2000, 5, n_steps=1000)
        limit = cgf_limit(params44, p)
        assert abs(est - limit) <= 3.0 * se + 0.2

    def test_overflow_guard(self, params44):
        with pytest.raises(OverflowError):
            cgf_finite_T_mc(params44, CgfPoint(0.0, 1e308, 0.0, 0.0), 2.0, 50, 1, n_steps=20)
