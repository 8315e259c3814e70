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
Fenchel-Legendre transform used to cross-check the variational form (one
Newton solve in (mu, nu) on Lambda's smooth sectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import cir_model
from ._elementwise import _check_real, _where
from .cir_model import ProcessParams
from .errors import BoundaryError

__all__ = [
    "CgfPoint",
    "cgf_finite_T_mc",
    "cgf_gradient",
    "cgf_limit",
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
    of 1/X, and gamma multiplies T * curlyL_T.  Each is stored as a float; a
    bool or a non-number raises DomainError, an int past float range is +-inf.
    """

    lam: float
    mu: float
    nu: float
    gamma: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _check_real(f.name, getattr(self, f.name)))


def _dual_floats(
    a: float, b: float, mu: float, nu: float
) -> tuple[float, float, float] | None:
    # The dual map (mu, nu) -> (d, f, phi), or None outside the open CGF
    # domain.  Lambda, its gradient and the numeric transform all read it.
    rad_d = b * b - 8.0 * mu
    rad_f = (a - 2.0) ** 2 - 8.0 * nu
    if rad_d <= 0.0 or rad_f <= 0.0:
        return None
    f = 0.5 * math.sqrt(rad_f)
    return math.sqrt(rad_d), f, 2.0 * f + a + 2.0


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


def _cgf_at(
    a: float, b: float, lam: float, gamma: float, d: float, f: float, phi: float
) -> float:
    # Lambda at (lam, mu, nu, gamma) from the duals (d, f, phi) of (mu, nu).
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
    a, b = params.a, params.b
    dfp = _dual_floats(a, b, p.mu, p.nu)
    return INF if dfp is None else _cgf_at(a, b, p.lam, p.gamma, *dfp)


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
    dfp = _dual_floats(a, b, p.mu, p.nu)
    assert dfp is not None
    d, f, phi = dfp
    lam, gamma = p.lam, p.gamma
    if lam > 0.0 and gamma < 0.0 and abs(gamma * gamma / (lam * lam) - phi / (d - b)) < tol:
        raise BoundaryError(
            "point is within tolerance of the branch switching surface "
            "gamma^2/lam^2 = phi/(d-b); Lambda is kinked there"
        )
    # One-sided where Lambda is kinked, by cgf_limit's sector rule.
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
    return np.array([g_lam, g_mu, g_nu, g_gamma])


def cgf_finite_T_mc(
    params: ProcessParams,
    p: CgfPoint,
    T: float,
    n_paths: int,
    rng: int | np.random.Generator,
    n_steps: int | None = None,
    n_workers: int = 1,
) -> tuple[float, float]:
    """Monte Carlo estimate of the normalized CGF at horizon T.

    Simulates ``n_paths`` exact paths, reads their quadruplets off the
    ensemble's observables, forms the exponent
    lam*T*sqrt(X_T/T) + gamma*T*curlyL + mu*Int(X) + nu*Int(1/X) per path,
    and returns (estimate, stderr) where the estimate is the log-sum-exp
    average divided by T and the standard error comes from the delta method.

    Raises
    ------
    DomainError
        If ``n_paths`` is not an integer of at least 2, as a standard error
        needs, or T is not positive and finite.
    OverflowError
        If any exponent is non-finite (extreme argument points).
    """
    cir_model._check_count("n_paths", n_paths, cir_model._SAMPLE_PATHS)
    if n_steps is None:
        n_steps = cir_model._steps_for(T, 200)
    ens = cir_model.simulate_ensemble(params, T, n_steps, n_paths, rng, n_workers)
    # An overflow here is reported by the check below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        e = (
            p.lam * T * ens.sqrt_xT_over_T
            + p.gamma * T * ens.curlyL
            + p.mu * T * ens.S
            + p.nu * T * ens.Sigma
        )
    if not np.all(np.isfinite(e)):
        raise OverflowError("non-finite exponent in finite-horizon CGF estimate")
    m = float(e.max())
    w = np.exp(e - m)
    mean_w = float(w.mean())
    estimate = (m + math.log(mean_w)) / T
    stderr = float(w.std(ddof=1)) / (mean_w * math.sqrt(n_paths) * T)
    return estimate, stderr


# ---------------------------------------------------------------------------
# Variational transform: Lambda*(x, y, z, t) = sup_{d>0, f>0} h(d, f).
# ---------------------------------------------------------------------------


#: lambda_star stops once the full Newton step is predicted to gain less.
NEWTON_GAIN_TOL = 1e-13


def _h_start(a: float, b: float, x, y, z, t):
    # (h(u0), d0, f0, q*) of lambda_star's Method at points inside the cone:
    # u0 = (d0, f0) = M^-1 l, q* = q(u0) and h(u0) = q* + r(u0).  Python
    # floats run in math, arrays (or floats broadcast against them) in numpy
    # under the caller's errstate; both give the same bits.
    l_d, l_f = 0.25 * x * x + 0.5, 0.5 * t * t
    yz1 = y * z - 1.0
    # Divided before multiplying, so that huge y or z overflow only where
    # the value does.
    d0 = 4.0 * (z / yz1) * l_d + 2.0 * l_f / yz1
    f0 = 2.0 * l_d / yz1 + (y / yz1) * l_f
    over = yz1 == INF
    scalar = type(over) is bool
    if over if scalar else over.any():
        # y z overflows, so M^-1 is tiny: z / yz1 = 1 / (y - 1/z) and
        # y / yz1 = 1 / (z - 1/y).
        z_yz1 = 1.0 / (y - 1.0 / z)
        d0 = _where(over, 4.0 * z_yz1 * l_d + 2.0 * l_f * (z_yz1 / z), d0)
        f0 = _where(over, 2.0 * l_d * (z_yz1 / z) + l_f / (z - 1.0 / y), f0)
    q_star = (
        0.25 * t * t * (a + 2.0)
        - 0.25 * x * x * b
        + y * b * b / 8.0
        + (a - 2.0) ** 2 * z / 8.0
        + 0.25 * a * b
        + 0.5 * (l_d * d0 + l_f * f0)
    )
    sqrt = math.sqrt if scalar else np.sqrt
    h = q_star + (-0.5 * x * t) * sqrt(2.0 * f0 + a + 2.0) * sqrt(d0 - b)
    return h, d0, f0, q_star


def _lambda_star_array(params: ProcessParams, x, y, z, t) -> np.ndarray:
    """lambda_star elementwise on arrays, each element with its float call's bits.

    The coordinates broadcast against each other.  Points on the faces x = 0
    and t = 0, where lambda_star returns h(u0), take one numpy pass through
    the same h(u0), with lambda_star's non-finite policy applied
    elementwise.  Any other point runs the float call's Newton ascent.
    """
    with np.errstate(all="ignore"):
        h = _h_start(params.a, params.b, x, y, z, t)[0]
        cone = (x >= 0.0) & (t <= 0.0) & (y > 0.0) & (z > 0.0) & (y * z - 1.0 > 0.0)
        inside = cone & (x < INF) & (y < INF) & (z < INF) & (t > -INF)
        off_face = inside & (-0.5 * x * t != 0.0)
    out = np.where(inside & (h == h), h, INF)
    if not inside.all():
        # A NaN coordinate leaves the cone, and gives NaN.
        out = np.where(np.isnan(x) | np.isnan(y) | np.isnan(z) | np.isnan(t), math.nan, out)
    if off_face.any():
        coords = (c[off_face].tolist() for c in np.broadcast_arrays(x, y, z, t))
        out[off_face] = [lambda_star(params, *p) for p in zip(*coords)]
    return out


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
    maximiser u* = u0 + M^-1 grad r(u*) >= u0 of h are interior.  On the
    faces x = 0 and t = 0, k = +-0.0, so r and its gradient vanish and
    u* = u0 (which is (-b, (a-2)/2) at the ergodic limits): h(u0) is
    returned without a Newton step.  That is exact, not a shortcut: the
    step would be 0 (or NaN where h is), and the ascent would stop at u0
    with the same bits.  u0, q(u0) and h(u0) are written once, for floats
    and arrays, so an array of face points (as an inf-sup face scan makes)
    runs as one numpy pass with the bits of these float calls.  Elsewhere a
    damped Newton ascent in (d, f) starts at u0.  Each step is clipped to
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
    h, d0, f0, q_star = _h_start(a, b, x, y, z, t)
    k = -0.5 * x * t
    if k == 0.0:
        # On a face r vanishes, so u0 is the maximiser and h(u0) the value.
        return INF if math.isnan(h) else h
    sqrt = math.sqrt
    yz1 = y * z - 1.0
    if yz1 == INF:
        # det M = (y/2)(z/2) - 1/4, formed without the overflowing y z.
        det_m = (0.5 * y) * (0.5 * z) - 0.25
        e = sqrt(y) * sqrt(z) - 1.0
    else:
        det_m = 0.25 * yz1
        # v'Mv = (sy v_d - sz v_f)^2 + e v_d v_f with e = sqrt(yz) - 1.
        e = yz1 / (sqrt(y * z) + 1.0)
    sy, sz = 0.5 * sqrt(y), sqrt(z)
    y4 = 0.25 * y
    # h(v) = q_star - v'Mv/2 + r(u0 + v), at v = 0 the h(u0) above
    v_d = v_f = 0.0
    # sqrt(d - b) and sqrt(phi) at u0 + v, carried over from the line search
    dmb = d0 - b
    sdb, sphi = sqrt(dmb), sqrt(2.0 * f0 + a + 2.0)
    for _ in range(100):
        d, f = d0 + v_d, f0 + v_f
        sdb2 = 2.0 * sdb
        r_d = k * sphi / sdb2
        r_f = k * sdb / sphi
        c = k / (sdb2 * sphi)
        p, q = r_d / (2.0 * dmb), r_f / (sphi * sphi)
        g_d = r_d - y4 * v_d + 0.5 * v_f
        g_f = r_f + 0.5 * v_d - z * v_f
        # -H = [[p + y/4, -(1/2 + c)], [-(1/2 + c), q + z]] with p q = c^2
        root = sz * sqrt(p) - sy * sqrt(q)
        det = root * root + c * e + det_m
        c2 = 0.5 + c
        step_d = ((q + z) * g_d + c2 * g_f) / det
        step_f = (c2 * g_d + (p + y4) * g_f) / det
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
            dmb_new = d0 + vd_new - b
            sdb_new, sphi_new = sqrt(dmb_new), sqrt(2.0 * (f0 + vf_new) + a + 2.0)
            h_new = q_star - 0.5 * (w * w + e * vd_new * vf_new) + k * sphi_new * sdb_new
            if h_new > h:
                break
            scale *= 0.5
        else:
            break
        v_d, v_f, h = vd_new, vf_new, h_new
        dmb, sdb, sphi = dmb_new, sdb_new, sphi_new
    return INF if math.isnan(h) else h


# ---------------------------------------------------------------------------
# Independent numerical 4-D Fenchel-Legendre transform.
# ---------------------------------------------------------------------------

#: Objective value past which the transform is declared unbounded (+inf).
UNBOUNDED_OBJECTIVE = 1e8

#: The Newton solve stops once the full step is predicted to gain less.
LEGENDRE_GAIN_TOL = 1e-13


def _legendre_solve(
    a: float, b: float, x: float, y: float, z: float, t: float
) -> tuple[float, tuple[float, float, float, float] | None, str, float]:
    # (value, theta*, stage, s) of legendre_transform_numeric; see its
    # docstring.  s is sector 1's weight in p = s grad Lambda_1(theta*) +
    # (1 - s) grad Lambda_2(theta*), nan where no solve runs.
    if x != x or y != y or z != z or t != t:
        return math.nan, None, "nan", math.nan
    if INF in (abs(x), abs(y), abs(z), abs(t)) or x < 0.0 or t > 0.0:
        return INF, None, "exterior", math.nan
    if t == 0.0:
        stage = "pair" if x == 0.0 else "t0_face"
    else:
        stage = "x0_face" if x == 0.0 else "interior"
    tau = -t
    mu_hi, nu_hi = b * b / 8.0, (a - 2.0) ** 2 / 8.0

    def point(mu: float, nu: float):
        # theta(mu, nu) with the stage's multipliers at their maximiser, the
        # objective there, and the surface multiplier lam_s that maximises
        # over lam with gamma = -lam sqrt(phi / (d - b)); None outside the
        # domain.
        dfp = _dual_floats(a, b, mu, nu)
        if dfp is None:
            return None
        d, f, phi = dfp
        dmb = d - b
        lam_s = 0.5 * (x * dmb + tau * math.sqrt(phi * dmb))
        if stage == "x0_face":
            theta = (0.0, mu, nu, 0.5 * t * phi)
        elif stage == "interior":
            theta = (lam_s, mu, nu, -lam_s * math.sqrt(phi / dmb))
        else:
            theta = (lam_s, mu, nu, 0.0)
        lam, _, _, gamma = theta
        value = x * lam + y * mu + z * nu + t * gamma - _cgf_at(a, b, lam, gamma, d, f, phi)
        return theta, value, d, f, phi, lam_s

    mu = nu = 0.0
    theta, val, d, f, phi, lam = point(mu, nu)
    for _ in range(200):
        if not val <= UNBOUNDED_OBJECTIVE:
            break
        # G(lam, mu, nu) = x lam + y mu + z nu + t gamma - Lambda on the
        # surface gamma = -lam sq, sq = sqrt(phi / (d - b)), is
        # x lam + y mu + z nu + P(lam, d, f) + a b / 4 with
        # P = tau lam sq - lam^2 / (d - b) + d (1 + f) / 2.  Its partials
        # in (lam, d, f) at lam = lam_s, where G_lam = 0.  They serve the
        # faces too: there tau = 0, or x = 0 and the surface point has the
        # face's gamma = t phi / 2 and value.
        dmb = d - b
        sq = math.sqrt(phi / dmb)
        tl, r = tau * lam * sq, lam / dmb
        p_d = -0.5 * tl / dmb + r * r + 0.5 * (1.0 + f)
        p_f = tl / phi + 0.5 * d
        p_ld = (2.0 * r - 0.5 * tau * sq) / dmb
        p_lf = tau * sq / phi
        p_dd = (0.75 * tl / dmb - 2.0 * r * r) / dmb
        p_df = 0.5 - 0.5 * tl / (dmb * phi)
        p_ff = -tl / (phi * phi)
        # The Newton system in (lam, mu, nu) with lam's row eliminated (P_ll
        # = -2/(d - b)), scaled by d_mu = -4/d and f_nu = -1/f: the step is
        # (dmu, dnu) = (-d w_d / 4, -f w_f) with -Q w = e.  The d_mumu =
        # -16/d^3 and f_nunu = -1/f^3 terms give -P_d/d and -P_f/f.
        q_dd = -p_dd + p_d / d - 0.5 * dmb * p_ld * p_ld
        q_df = -p_df - 0.5 * dmb * p_ld * p_lf
        q_ff = -p_ff + p_f / f - 0.5 * dmb * p_lf * p_lf
        e_d = p_d - 0.25 * d * y
        e_f = p_f - f * z
        det = q_dd * q_ff - q_df * q_df
        if not det > 0.0:
            break
        w_d = (q_ff * e_d - q_df * e_f) / det
        w_f = (q_dd * e_f - q_df * e_d) / det
        # A coordinate within an ulp of its bound can move no closer to it:
        # the step then solves for the other coordinate alone.
        if w_f < 0.0 and not nu < nu + 0.5 * (nu_hi - nu) < nu_hi:
            w_d, w_f = e_d / q_dd, 0.0
        elif w_d < 0.0 and not mu < mu + 0.5 * (mu_hi - mu) < mu_hi:
            w_d, w_f = 0.0, e_f / q_ff
        gain = 0.5 * (e_d * w_d + e_f * w_f)
        if not gain >= 0.0:
            break
        step_mu, step_nu = -0.25 * d * w_d, -f * w_f
        # Keep mu < mu_hi and nu < nu_hi: at most half the distance.
        scale = 1.0
        if mu + step_mu >= mu_hi:
            scale = 0.5 * (mu_hi - mu) / step_mu
        if nu + scale * step_nu >= nu_hi:
            scale = 0.5 * (nu_hi - nu) / step_nu
        # Once the predicted gain is below LEGENDRE_GAIN_TOL, the full step is
        # tried once more and the solve stops.
        last = gain < LEGENDRE_GAIN_TOL
        for _ in range(1 if last else 60):
            cand = point(mu + scale * step_mu, nu + scale * step_nu)
            if cand is not None and cand[1] > val:
                break
            scale *= 0.5
        else:
            break
        theta, val, d, f, phi, lam = cand
        _, mu, nu, _ = theta
        if last:
            break
    if not val <= UNBOUNDED_OBJECTIVE:
        return INF, theta, "unbounded", math.nan
    # s = x (d - b) / (2 lam_s): 1 on the t = 0 face and at the pair point,
    # 0 on the x = 0 face.
    s = x / (x + tau * math.sqrt(phi / (d - b))) if x + tau > 0.0 else 1.0
    return val, theta, stage, s


def legendre_transform_numeric(
    params: ProcessParams, x: float, y: float, z: float, t: float
) -> float:
    """sup over the CGF domain of <(x,y,z,t), (lam,mu,nu,gamma)> - Lambda.

    Lambda = max(Lambda_1, Lambda_2), where Lambda_1 adds lam^2/(d-b) for
    lam > 0 and Lambda_2 adds gamma^2/phi for gamma < 0 to the common part
    -d (1 + f)/2 - a b/4.  Each sector is smooth, so the supremum is one
    damped Newton solve, picked by the signs of x and t:

    * t = 0 (and x >= 0): only Lambda_1 binds; lam = x (d - b)/2 and
      gamma = 0.  x = t = 0 is the pair point, where lam = gamma = 0.
    * x = 0, t < 0: only Lambda_2 binds; lam = 0 and gamma = t phi/2.
    * x > 0, t < 0: both bind, so theta* lies on the switching surface
      gamma = -lam sqrt(phi/(d-b)).  The solve is the 3-D Newton system in
      (lam, mu, nu) on that surface, with lam kept at its maximiser
      (x (d-b) + |t| sqrt(phi (d-b)))/2 and its row eliminated.

    What remains is a concave maximisation over (mu, nu), solved from
    (0, 0) by Newton steps with analytic derivatives.  Each step is clipped
    to keep mu < b^2/8 and nu < (a-2)^2/8 (at most half the distance) and
    halved until the objective increases; a coordinate within an ulp of its
    bound is left out of the step.  Once the predicted gain of the full
    step falls below LEGENDRE_GAIN_TOL, that step is tried once more and
    the solve stops; it also stops when no halving increases the objective,
    or after 200 steps.  The value returned is <theta*, (x, y, z, t)> -
    Lambda(theta*), with Lambda evaluated by cgf_limit's own arithmetic.

    Non-finite policy: a bool or a non-number raises DomainError; nan when
    any coordinate is nan; otherwise +inf when any coordinate is infinite (an
    int past float range is), when x < 0 or t > 0 (Lambda does not change
    along -lam or +gamma), and when the objective exceeds UNBOUNDED_OBJECTIVE
    during the solve (outside the cone y > 0, z > 0, y z > 1).
    """
    return _legendre_solve(params.a, params.b, *map(_check_real, "xyzt", (x, y, z, t)))[0]
