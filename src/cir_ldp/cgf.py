"""Limiting cumulant generating function of the quadruplet and its transforms.

The quadruplet is (sqrt(X_T/T), S_T, Sigma_T, curlyL_T) with argument vector
(lam, mu, nu, gamma).  The normalized cumulant generating functions converge
to a piecewise closed form Lambda, finite on
{mu < b^2/8, nu < (a-2)^2/8} and built from the dual variables

    d = sqrt(b^2 - 8 mu),   f = (1/2) sqrt((a-2)^2 - 8 nu),
    phi = 2 f + a + 2.

This module evaluates Lambda, its gradient, a finite-horizon Monte Carlo
estimate of it, the variational form of its Fenchel-Legendre transform
(a concave 2-D maximization over (d, f)), and an independent numerical 4-D
Fenchel-Legendre transform used to cross-check the variational form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cir_model
from ._simplex import nelder_mead
from .cir_model import ProcessParams
from .errors import BoundaryError, DomainError

__all__ = [
    "CgfPoint",
    "DualVars",
    "cgf_finite_T_mc",
    "cgf_gradient",
    "cgf_limit",
    "dual_vars",
    "lambda_star",
    "legendre_transform_numeric",
]

INF = math.inf

#: Evaluation points closer than this to the domain boundary or the branch
#: switching surface get a BoundaryError from cgf_gradient.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class CgfPoint:
    """Argument (lam, mu, nu, gamma) of the limiting CGF.

    lam multiplies sqrt(T) * sqrt(X_T), mu the integral of X, nu the integral
    of 1/X, and gamma multiplies T * curlyL_T.
    """

    lam: float
    mu: float
    nu: float
    gamma: float


@dataclass(frozen=True)
class DualVars:
    """Dual variables (d, f) with the derived phi = 2f + a + 2 and g = phi/4."""

    d: float
    f: float
    phi: float
    g: float


def _dual_floats(
    a: float, b: float, mu: float, nu: float
) -> tuple[float, float, float] | None:
    # (d, f, phi) as plain floats, or None outside the open CGF domain.
    rad_d = b * b - 8.0 * mu
    rad_f = (a - 2.0) ** 2 - 8.0 * nu
    if rad_d <= 0.0 or rad_f <= 0.0:
        return None
    f = 0.5 * math.sqrt(rad_f)
    return math.sqrt(rad_d), f, 2.0 * f + a + 2.0


def dual_vars(params: ProcessParams, mu: float, nu: float) -> DualVars | None:
    """Dual variables at (mu, nu), or None outside the open CGF domain."""
    dfp = _dual_floats(params.a, params.b, mu, nu)
    if dfp is None:
        return None
    d, f, phi = dfp
    return DualVars(d=d, f=f, phi=phi, g=0.25 * phi)


def _branch(lam: float, gamma: float, d_minus_b: float, phi: float) -> int:
    # 1: the lam^2/(d-b) sector, 2: the gamma^2/phi sector, 0: neither.
    # On the switching surface gamma^2/lam^2 = phi/(d-b) the two sector values
    # agree, so routing the equality case to sector 2 is observationally
    # irrelevant for Lambda itself.
    if lam > 0.0:
        if gamma >= 0.0:
            return 1
        return 1 if gamma * gamma * d_minus_b < lam * lam * phi else 2
    if gamma < 0.0:
        return 2
    return 0


def _cgf_value(a: float, b: float, lam: float, mu: float, nu: float, gamma: float) -> float:
    # cgf_limit on plain floats: the numeric transform evaluates it thousands
    # of times per point, where CgfPoint/DualVars construction dominates.
    dfp = _dual_floats(a, b, mu, nu)
    if dfp is None:
        return INF
    d, f, phi = dfp
    value = -0.5 * d * (1.0 + f) - 0.25 * a * b
    sector = _branch(lam, gamma, d - b, phi)
    if sector == 1:
        value += lam * lam / (d - b)
    elif sector == 2:
        value += gamma * gamma / phi
    return value


def cgf_limit(params: ProcessParams, p: CgfPoint) -> float:
    """Limiting normalized CGF Lambda(lam, mu, nu, gamma).

    Returns nan when any coordinate is nan; otherwise +inf when
    mu >= b^2/8 or nu >= (a-2)^2/8 (the boundary itself is mapped to +inf),
    and the piecewise closed form inside.  Total function: never raises.
    """
    if any(math.isnan(v) for v in (p.lam, p.mu, p.nu, p.gamma)):
        return math.nan
    return _cgf_value(params.a, params.b, p.lam, p.mu, p.nu, p.gamma)


def _gradient_terms(
    b: float, lam: float, gamma: float, d: float, f: float, phi: float
) -> tuple[float, float, float, float]:
    # One-sided gradient consistent with the branch dispatch of cgf_limit;
    # no boundary or switching-surface guards.
    sector = _branch(lam, gamma, d - b, phi)
    g_lam = 2.0 * lam / (d - b) if sector == 1 else 0.0
    g_mu = 2.0 * (1.0 + f) / d
    if sector == 1:
        g_mu += 4.0 * lam * lam / (d * (d - b) ** 2)
    g_nu = d / (2.0 * f)
    g_gamma = 0.0
    if sector == 2:
        g_nu += 2.0 * gamma * gamma / (f * phi * phi)
        g_gamma = 2.0 * gamma / phi
    return g_lam, g_mu, g_nu, g_gamma


def cgf_gradient(
    params: ProcessParams, p: CgfPoint, tol: float = BOUNDARY_TOL
) -> np.ndarray:
    """Gradient of Lambda at a point strictly inside its domain.

    Returns a NaN 4-vector when any coordinate is nan, as cgf_limit returns nan.

    Raises
    ------
    BoundaryError
        If the point is within ``tol`` of the domain boundary (mu near
        b^2/8, nu near (a-2)^2/8, or outside), or within ``tol`` of the
        branch switching surface gamma^2/lam^2 = phi/(d-b) in the sector
        lam > 0, gamma < 0 where Lambda is kinked.
    """
    if any(math.isnan(v) for v in (p.lam, p.mu, p.nu, p.gamma)):
        return np.full(4, math.nan)
    a, b = params.a, params.b
    if b * b / 8.0 - p.mu < tol:
        raise BoundaryError(
            f"mu={p.mu} is within {tol} of the domain boundary b^2/8={b * b / 8.0}"
        )
    if (a - 2.0) ** 2 / 8.0 - p.nu < tol:
        raise BoundaryError(
            f"nu={p.nu} is within {tol} of the domain boundary "
            f"(a-2)^2/8={(a - 2.0) ** 2 / 8.0}"
        )
    dv = dual_vars(params, p.mu, p.nu)
    assert dv is not None
    if p.lam > 0.0 and p.gamma < 0.0:
        ratio_gap = abs(
            p.gamma * p.gamma / (p.lam * p.lam) - dv.phi / (dv.d - b)
        )
        if ratio_gap < tol:
            raise BoundaryError(
                "point is within tolerance of the branch switching surface "
                "gamma^2/lam^2 = phi/(d-b); Lambda is kinked there"
            )
    return np.array(_gradient_terms(b, p.lam, p.gamma, dv.d, dv.f, dv.phi))


def cgf_finite_T_mc(
    params: ProcessParams,
    p: CgfPoint,
    T: float,
    n_paths: int,
    rng: int | np.random.Generator,
    n_steps: int | None = None,
    n_workers: int | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the normalized CGF at horizon T.

    Simulates ``n_paths`` exact paths, forms the exponent
    lam*sqrt(T)*sqrt(X_T) + gamma*T*curlyL + mu*Int(X) + nu*Int(1/X) per path,
    and returns (estimate, stderr) where the estimate is the log-sum-exp
    average divided by T and the standard error comes from the delta method.

    Raises
    ------
    OverflowError
        If any exponent is non-finite (extreme argument points).
    """
    if n_steps is None:
        n_steps = max(2, round(200 * T))
    ens = cir_model.simulate_ensemble(params, T, n_steps, n_paths, rng, n_workers)
    x_T = ens.x_T
    log_xT = np.log(x_T)
    curly = np.where(log_xT < 0.0, -np.sqrt(np.abs(log_xT) / T), log_xT / T)
    # An overflow here is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        e = (
            p.lam * math.sqrt(T) * np.sqrt(x_T)
            + p.gamma * T * curly
            + p.mu * T * ens.S
            + p.nu * T * ens.Sigma
        )
    if not np.all(np.isfinite(e)):
        raise OverflowError("non-finite exponent in finite-horizon CGF estimate")
    m = float(e.max())
    w = np.exp(e - m)
    n = float(n_paths)
    mean_w = float(w.mean())
    estimate = (m + math.log(mean_w)) / T
    if n_paths > 1:
        stderr = float(w.std(ddof=1)) / (mean_w * math.sqrt(n) * T)
    else:
        stderr = 0.0
    return estimate, stderr


# ---------------------------------------------------------------------------
# Variational transform: Lambda*(x, y, z, t) = sup_{d>0, f>0} h(d, f).
# ---------------------------------------------------------------------------


#: lambda_star stops once the full Newton step is predicted to gain less.
NEWTON_GAIN_TOL = 1e-13


def lambda_star(
    params: ProcessParams, x: float, y: float, z: float, t: float
) -> float:
    """Fenchel-Legendre transform of Lambda in variational form.

    The supremum over d > 0, f > 0 of the dual objective

        h(d, f) = (t sqrt(phi) - x sqrt(d - b))^2 / 4 + y (b^2 - d^2) / 8
                  + ((a-2)^2 - 4 f^2) z / 8 + d (1 + f) / 2 + a b / 4,

    with phi = 2f + a + 2.

    Non-finite policy: nan when any coordinate is nan; otherwise +inf
    outside the admissible cone (x < 0, t > 0, y <= 0, z <= 0 or
    y z - 1 <= 0), +inf at an infinite coordinate inside it, and +inf where
    finite coordinates overflow the arithmetic (as at x = 1e200).  An
    overflow of the product y z alone is not one: u0 = M^-1 l is then formed
    from 1/(y - 1/z) and 1/(z - 1/y), and the value stays finite where it
    fits a float (at x = t = 0 it is y b^2/8 + (a-2)^2 z/8 + a b/4 to
    rounding).

    Method.  h = q + r, where q(u) = c + l.u - u'Mu/2 is quadratic in
    u = (d, f), with l = (x^2/4 + 1/2, t^2/2) and M = [[y/4, -1/2], [-1/2, z]],
    and r = k sqrt(phi (d - b)) with k = -x t / 2 >= 0 is concave.  On the
    cone h is strictly concave: h_dd <= -y/4, h_ff <= -z and
    h_dd h_ff - h_df^2 >= det M = (y z - 1)/4 > 0.  M^-1 has positive
    entries and l, grad r >= 0, so the maximiser u0 = M^-1 l of q and the
    maximiser u* = u0 + M^-1 grad r(u*) >= u0 of h are interior.  A damped
    Newton ascent in (d, f) starts at u0, which is u* when x = 0 or t = 0
    (and is (-b, (a-2)/2) at the ergodic limits).  Each step is clipped to
    keep d and f positive (at most half the distance to 0) and halved until
    h increases; the ascent stops once the full step's predicted gain
    (h_d step_d + h_f step_f)/2 falls below NEWTON_GAIN_TOL, or once no
    halving of the step increases h (where h is too large for rounding to
    resolve that gain).

    h is evaluated as q(u0) - v'Mv/2 + r(u0 + v) at v = u - u0, and det(-H)
    and v'Mv as sums of non-negative terms, so that the value keeps its
    relative accuracy as y z -> 1, where it grows like 1/(y z - 1).
    """
    if not (x >= 0.0 and t <= 0.0 and y > 0.0 and z > 0.0 and y * z - 1.0 > 0.0):
        return math.nan if x != x or y != y or z != z or t != t else INF
    if x == INF or y == INF or z == INF or t == -INF:
        return INF
    a, b = params.a, params.b
    k = -0.5 * x * t
    l_d, l_f = 0.25 * x * x + 0.5, 0.5 * t * t
    yz1 = y * z - 1.0
    if yz1 == INF:
        # y z overflows, so M^-1 is tiny: z / yz1 = 1 / (y - 1/z) and
        # y / yz1 = 1 / (z - 1/y), and det M = (y/2)(z/2) - 1/4.
        z_yz1 = 1.0 / (y - 1.0 / z)
        d0 = 4.0 * z_yz1 * l_d + 2.0 * l_f * (z_yz1 / z)
        f0 = 2.0 * l_d * (z_yz1 / z) + l_f / (z - 1.0 / y)
        det_m = (0.5 * y) * (0.5 * z) - 0.25
        e = math.sqrt(y) * math.sqrt(z) - 1.0
    else:
        # u0 = M^-1 l, divided before multiplying so that huge y or z
        # overflow only where the value does
        d0 = 4.0 * (z / yz1) * l_d + 2.0 * l_f / yz1
        f0 = 2.0 * l_d / yz1 + (y / yz1) * l_f
        det_m = 0.25 * yz1
        # v'Mv = (sy v_d - sz v_f)^2 + e v_d v_f with e = sqrt(yz) - 1.
        e = yz1 / (math.sqrt(y * z) + 1.0)
    q_star = (
        0.25 * t * t * (a + 2.0)
        - 0.25 * x * x * b
        + y * b * b / 8.0
        + (a - 2.0) ** 2 * z / 8.0
        + 0.25 * a * b
        + 0.5 * (l_d * d0 + l_f * f0)
    )
    sy, sz = 0.5 * math.sqrt(y), math.sqrt(z)
    # h(v) = q_star - v'Mv/2 + r(u0 + v), here at v = 0 and in the line search
    v_d = v_f = 0.0
    h = q_star + k * math.sqrt(2.0 * f0 + a + 2.0) * math.sqrt(d0 - b)
    for _ in range(100):
        d, f = d0 + v_d, f0 + v_f
        sdb = math.sqrt(d - b)
        sphi = math.sqrt(2.0 * f + a + 2.0)
        r_d = k * sphi / (2.0 * sdb)
        r_f = k * sdb / sphi
        c = k / (2.0 * sdb * sphi)
        p, q = r_d / (2.0 * (d - b)), r_f / (sphi * sphi)
        g_d = r_d - 0.25 * y * v_d + 0.5 * v_f
        g_f = r_f + 0.5 * v_d - z * v_f
        # -H = [[p + y/4, -(1/2 + c)], [-(1/2 + c), q + z]] with p q = c^2
        root = sz * math.sqrt(p) - sy * math.sqrt(q)
        det = root * root + c * e + det_m
        step_d = ((q + z) * g_d + (0.5 + c) * g_f) / det
        step_f = ((0.5 + c) * g_d + (p + 0.25 * y) * g_f) / det
        if not 0.5 * (g_d * step_d + g_f * step_f) >= NEWTON_GAIN_TOL:
            break
        scale = 1.0
        if d + step_d <= 0.0:
            scale = -0.5 * d / step_d
        if f + scale * step_f <= 0.0:
            scale = -0.5 * f / step_f
        for _ in range(60):
            vd_new, vf_new = v_d + scale * step_d, v_f + scale * step_f
            w = sy * vd_new - sz * vf_new
            h_new = q_star - 0.5 * (w * w + e * vd_new * vf_new) + k * math.sqrt(
                2.0 * (f0 + vf_new) + a + 2.0
            ) * math.sqrt(d0 + vd_new - b)
            if h_new > h:
                break
            scale *= 0.5
        else:
            break
        v_d, v_f, h = vd_new, vf_new, h_new
    return INF if math.isnan(h) else h


# ---------------------------------------------------------------------------
# Independent numerical 4-D Fenchel-Legendre transform.
# ---------------------------------------------------------------------------

#: Objective value past which the transform is declared unbounded (+inf).
UNBOUNDED_OBJECTIVE = 1e8

# The numeric transform runs on plain floats and evaluates the objective
# <theta, (x, y, z, t)> - Lambda(theta) in line: numpy, dataclass and helper
# call overhead would otherwise cost more than the arithmetic.  Each in-line
# evaluation repeats _cgf_value's operations in their order, with b^2,
# (a-2)^2 and a b/4 formed once, so every value keeps _cgf_value's bits.


def _surface_candidate(
    a: float, b: float, x: float, y: float, z: float, t: float
) -> tuple[float, tuple[float, float, float, float] | None]:
    # Best objective value over the switching surface gamma^2 (d - b) =
    # lam^2 phi restricted to the kinked quadrant lam > 0, gamma < 0.  The
    # surface is the one locus where Lambda is nonsmooth, so unconstrained
    # ascent can zigzag indefinitely when the maximizer sits on it; along the
    # surface itself the objective is smooth in (lam, mu, nu).  Coordinates
    # (p, u, w) map to lam = e^p, mu = mu_hi - e^u, nu = nu_hi - e^w, and
    # gamma is the on-surface value -lam sqrt(phi / (d - b)).
    bb, am2sq, ab4 = b * b, (a - 2.0) ** 2, 0.25 * a * b
    mu_hi, nu_hi = bb / 8.0, am2sq / 8.0

    def neg(v: tuple[float, float, float]) -> float:
        # Minus the objective at theta(v); the duals serve both gamma and Lambda.
        p, u, w = v
        # A nan coordinate fails this test: +inf, as Nelder-Mead reads a nan value.
        if not (-50.0 <= p <= 50.0 and -50.0 <= u <= 50.0 and -50.0 <= w <= 50.0):
            return INF
        lam = math.exp(p)
        mu = mu_hi - math.exp(u)
        nu = nu_hi - math.exp(w)
        rad_d = bb - 8.0 * mu
        rad_f = am2sq - 8.0 * nu
        if rad_d <= 0.0 or rad_f <= 0.0:
            return INF
        d = math.sqrt(rad_d)
        f = 0.5 * math.sqrt(rad_f)
        phi = 2.0 * f + a + 2.0
        dmb = d - b
        gamma = -lam * math.sqrt(phi / dmb)
        value = -0.5 * d * (1.0 + f) - ab4
        # _branch's sector rule; lam > 0 here
        if gamma >= 0.0 or gamma * gamma * dmb < lam * lam * phi:
            value += lam * lam / dmb
        else:
            value += gamma * gamma / phi
        if value == INF:
            return INF
        return -(x * lam + y * mu + z * nu + t * gamma - value)

    def theta_of(v: tuple[float, float, float]) -> tuple[float, float, float, float]:
        lam = math.exp(v[0])
        mu = mu_hi - math.exp(v[1])
        nu = nu_hi - math.exp(v[2])
        d, _, phi = _dual_floats(a, b, mu, nu)
        return lam, mu, nu, -lam * math.sqrt(phi / (d - b))

    # Coarse log-space lattice scan, then a derivative-free polish from the
    # leading nodes.  The lattice spans several orders of magnitude because
    # the maximizer's scale grows with the query point.
    axis = np.log(np.array([1e-2, 0.1, 0.7, 4.0, 25.0, 150.0, 1e3])).tolist()
    nodes = sorted(
        ((neg(node), node) for node in itertools.product(axis, repeat=3)),
        key=lambda item: item[0],
    )
    best_val, best_theta = -INF, None
    for fval, node in nodes[:3]:
        if fval == INF:
            continue
        fun, v = nelder_mead(neg, node, xatol=1e-10, fatol=1e-12, maxfev=2000)
        # A finite fun was taken at a v inside the box and the domain.
        if math.isfinite(fun) and -fun > best_val:
            best_val, best_theta = -fun, theta_of(v)
    return best_val, best_theta


def legendre_transform_numeric(
    params: ProcessParams, x: float, y: float, z: float, t: float
) -> float:
    """sup over the CGF domain of <(x,y,z,t), (lam,mu,nu,gamma)> - Lambda.

    Projected gradient ascent with boundary-aware backtracking from 7
    quadrant-covering starts, combined with a smooth search along the
    switching surface (where Lambda is kinked, unconstrained ascent zigzags,
    and the maximizer sits whenever both sector terms bind), followed by a
    derivative-free polish.  The surface search and the polish are
    Nelder-Mead runs from cir_ldp._simplex, which repeats scipy's iteration
    on Python floats.  Returns +inf when the objective is detected unbounded
    (exceeds 1e8 along some ascent path).

    The starts are (lam, gamma) in {-1/2, 1/2}^2 with (mu, nu) at half the
    domain bounds, and the same with (mu, nu) = (-1, -1) except for
    lam = gamma = -1/2.  That eighth start never gave the result on C3's
    1 025 grid points, and without it every one of them keeps its value to
    the bit.

    Non-finite policy: nan when any coordinate is nan; otherwise +inf when
    any coordinate is infinite, since the domain contains a neighbourhood of
    0 and the objective is unbounded along that coordinate's axis.
    """
    if x != x or y != y or z != z or t != t:
        return math.nan
    if INF in (abs(x), abs(y), abs(z), abs(t)):
        return INF
    a, b = params.a, params.b
    bb, am2sq, ab4 = b * b, (a - 2.0) ** 2, 0.25 * a * b
    mu_hi, nu_hi = bb / 8.0, am2sq / 8.0

    def objective(lam: float, mu: float, nu: float, gamma: float) -> float:
        lam_val = _cgf_value(a, b, lam, mu, nu, gamma)
        if lam_val == INF:
            return -INF
        return x * lam + y * mu + z * nu + t * gamma - lam_val

    half = (0.5 * mu_hi, 0.5 * nu_hi)
    starts = [(-0.5, *half, -0.5)] + [
        (sl, m, n, sg)
        for sl, sg in ((-0.5, 0.5), (0.5, -0.5), (0.5, 0.5))
        for m, n in (half, (-1.0, -1.0))
    ]
    best_val = -INF
    best_theta: tuple[float, float, float, float] | None = None
    for lam, mu, nu, gamma in starts:
        # (d, f, phi) at the current point: an accepted candidate's duals
        # serve the next gradient.
        dfp = _dual_floats(a, b, mu, nu)
        if dfp is None:
            continue
        d, f, phi = dfp
        val = objective(lam, mu, nu, gamma)
        step = 1.0
        for _ in range(600):
            # Residual (x, y, z, t) - grad Lambda, by _gradient_terms.
            dmb = d - b
            r_lam, r_gamma = x, t
            g_mu = 2.0 * (1.0 + f) / d
            g_nu = d / (2.0 * f)
            if lam > 0.0 and (gamma >= 0.0 or gamma * gamma * dmb < lam * lam * phi):
                r_lam = x - 2.0 * lam / dmb
                g_mu += 4.0 * lam * lam / (d * dmb**2)
            elif lam > 0.0 or gamma < 0.0:
                g_nu += 2.0 * gamma * gamma / (f * phi * phi)
                r_gamma = t - 2.0 * gamma / phi
            r_mu, r_nu = y - g_mu, z - g_nu
            gnorm2 = r_lam * r_lam + r_mu * r_mu + r_nu * r_nu + r_gamma * r_gamma
            if math.sqrt(gnorm2) < 1e-12:
                break
            advanced = False
            while step > 1e-18:
                c_mu = mu + step * r_mu
                c_nu = nu + step * r_nu
                if c_mu < mu_hi and c_nu < nu_hi:
                    rad_d = bb - 8.0 * c_mu
                    rad_f = am2sq - 8.0 * c_nu
                    if rad_d > 0.0 and rad_f > 0.0:
                        c_lam = lam + step * r_lam
                        c_gamma = gamma + step * r_gamma
                        c_d = math.sqrt(rad_d)
                        c_f = 0.5 * math.sqrt(rad_f)
                        c_phi = 2.0 * c_f + a + 2.0
                        c_dmb = c_d - b
                        value = -0.5 * c_d * (1.0 + c_f) - ab4
                        if c_lam > 0.0:
                            if c_gamma >= 0.0 or c_gamma * c_gamma * c_dmb < c_lam * c_lam * c_phi:
                                value += c_lam * c_lam / c_dmb
                            else:
                                value += c_gamma * c_gamma / c_phi
                        elif c_gamma < 0.0:
                            value += c_gamma * c_gamma / c_phi
                        if value != INF:
                            cand_val = x * c_lam + y * c_mu + z * c_nu + t * c_gamma - value
                            if cand_val > val + 1e-4 * step * gnorm2:
                                lam, mu, nu, gamma = c_lam, c_mu, c_nu, c_gamma
                                d, f, phi, val = c_d, c_f, c_phi, cand_val
                                advanced = True
                                break
                step *= 0.5
            if not advanced:
                break
            if val > UNBOUNDED_OBJECTIVE:
                return INF
            step = min(step * 1.5, 1e6)
        if val > best_val:
            best_val, best_theta = val, (lam, mu, nu, gamma)
    surface_val, surface_theta = _surface_candidate(a, b, x, y, z, t)
    if surface_val > best_val and surface_theta is not None:
        best_val, best_theta = surface_val, surface_theta
    if best_val > UNBOUNDED_OBJECTIVE:
        return INF
    if best_theta is None:
        return INF

    def neg_polish(th: tuple[float, float, float, float]) -> float:
        _, mu, nu, _ = th
        if mu < mu_hi and nu < nu_hi:
            return -objective(*th)
        return INF

    # Derivative-free polish around the best ascent result.
    fun, _ = nelder_mead(neg_polish, best_theta, xatol=1e-9, fatol=1e-13, maxfev=4000)
    polished = -fun if math.isfinite(fun) else -INF
    best_val = max(best_val, polished)
    if best_val > UNBOUNDED_OBJECTIVE:
        return INF
    return best_val
