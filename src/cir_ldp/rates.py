"""Closed-form rate functions and the numerical inf-sup cross-check.

Conventions: extended-real values use math.inf; every rate function is a
total function of its arguments and returns +inf outside its effective
domain.  Branch boundaries route to the lower-indexed branch (the closed
forms agree there, which the continuity tests pin down).

The closed forms are elementwise: float coordinates give a float, and array
coordinates broadcast against each other and give an array.  One policy,
applied elementwise by ``_total``, makes them total: a NaN coordinate gives
NaN, as cgf_limit does, and otherwise a +-inf coordinate gives +inf, the
limit of a good rate function (its level sets are compact).  At finite
coordinates whose evaluation overflows (a -inf or NaN result) the value is
+inf.  rate_I_infsup follows the same policy but takes floats only.

Each body is written once, for both kinds of coordinate.  Its numpy calls go
through the typed helpers of ``_elementwise`` (and _sq_over below), which
send Python floats to math or to a conditional expression and arrays to
numpy.  Both sides call libm's pow and a correctly rounded sqrt, so a point
gets the same bits either way.
When every coordinate is a finite Python float, ``_total`` runs the body in
plain float arithmetic.  Where that divides by zero (as rate_pair does at
xy = 1) it runs the numpy path instead, so the value and the policy there
are unchanged.  rate_J and rate_K evaluate a branch only where some point
takes it, so a float call never divides in a branch it does not take.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._elementwise import _any, _libm, _maximum, _minimum, _pow, _real, _sq, _sqrt, _where
from ._simplex import minimize_bounded
from .cgf import _lambda_star_array, lambda_star
from .cir_model import ProcessParams
from .errors import DomainError

__all__ = [
    "RATES",
    "RateRegionConstants",
    "marginal_inf_numeric",
    "rate_I_infsup",
    "rate_I_mle",
    "rate_J",
    "rate_K",
    "rate_S",
    "rate_Sigma",
    "rate_V",
    "rate_marginal",
    "rate_pair",
    "rate_triplet_L",
    "rate_triplet_x",
    "region_constants",
]

INF = math.inf

_SQRT2 = math.sqrt(2.0)


def _total(rate):
    """Apply the non-finite policy elementwise to a rate of (params, *coords).

    Finite Python float coordinates run the body on Python floats: no array
    is made, and no warning can be raised.  A -inf or NaN result is an
    overflow and gives +inf.  If the float arithmetic divides by zero, or any
    coordinate is an array, a numpy scalar, an int or not finite, the body
    runs on numpy arrays under errstate, where the policy is applied
    elementwise; an int gives the value of its float there (+-inf past
    float range, as 1e400 does), and a coordinate whose dtype is neither an
    integer nor a float kind raises DomainError.
    """

    @functools.wraps(rate)
    def guarded(params: ProcessParams, *coords):
        for c in coords:
            if type(c) is not float or not -INF < c < INF:
                break
        else:
            try:
                value = rate(params, *coords)
            except ZeroDivisionError:
                pass
            else:
                return value if value > -INF else INF
        xs = []
        for c in coords:
            # A Python int is read as its float, +-inf past float range.
            x = np.asarray(_real(c) if type(c) is int else c)
            if x.dtype.kind not in "iuf":
                raise DomainError(f"rate coordinate must be a real number, got {c!r}")
            xs.append(x.astype(float, copy=False))
        # max |x_i| is NaN where some coordinate is NaN, else +inf where some
        # is infinite: the policy's value wherever it is not finite.
        out = functools.reduce(np.maximum, map(np.abs, xs))
        finite = np.isfinite(out)
        if finite.any():
            with np.errstate(all="ignore"):
                value = rate(params, *xs)
                # Overflow inside the float arithmetic shows up as -inf or
                # nan, and out + INF is +inf wherever out is finite.
                out = np.where(finite & (value > -INF), value, out + INF)
        return float(out) if out.ndim == 0 else out

    return guarded


def _sq_over(u, w):
    # u^2 / w, as _sq(u) / w wherever u^2 is finite, else as u (u / w), which
    # stays finite when u and w are both huge.
    sq = _sq(u)
    return _where(sq < INF, sq / w, u * (u / w))


def _quiet(method):
    # An array (or any non-float) argument runs the method under errstate, so
    # it gives the float call's inf and NaN without a warning.
    @functools.wraps(method)
    def quiet(self, alpha):
        if type(alpha) is float:
            return method(self, alpha)
        with np.errstate(all="ignore"):
            return method(self, alpha)

    return quiet


@dataclass(frozen=True)
class RateRegionConstants:
    """Branch-boundary constants of the simplified-estimator rate functions.

    C_alpha and beta_b take floats or arrays.  Outside their domains (the
    square of a - alpha overflows at |alpha| >= ~1.3e154, and beta_b's root
    is of a negative past alpha = (a^2 + 32)/8) they give +-inf, 0 or NaN,
    as arrays the same as floats, without a warning.  beta_b and K take
    sqrt(C_alpha) from _sqrt_C, which stays finite where C_alpha overflows.
    """

    a: float
    b: float
    ell_a: float
    alpha_a: float

    @_quiet
    def C_alpha(self, alpha):
        return 0.125 * _sq(self.a - alpha) + 2.0 - alpha

    @_quiet
    def beta_b(self, alpha):
        """Minimizing beta of K along the alpha-section, for alpha < alpha_a.

        Past alpha_a, at alpha = (a^2 + 32)/8, the root is 0 and the value
        is b alpha / 0 = -inf.
        """
        s = self._sqrt_C(alpha)
        root = _sqrt(16.0 * _SQRT2 * s + self.a * self.a - 8.0 * alpha + 32.0)
        # The root is 0 only where 8 alpha >= a^2 + 32, so b alpha < 0 there.
        if type(root) is float and root == 0.0:
            return -INF
        return self.b * alpha / root

    def _sqrt_C(self, alpha, scale: float = 1.0):
        # sqrt(scale C_alpha), with C_alpha clamped at 0: it is positive below
        # alpha_a but can round to a tiny negative right at the boundary.
        # Where C_alpha overflows it is sqrt(scale) m q of _C_sqrt_parts,
        # which is finite there (and negative past alpha = a, where no caller
        # is in its domain).
        c = self.C_alpha(alpha)
        root = _sqrt(scale * _maximum(c, 0.0))
        over = c == INF
        if _any(over):
            m, q = _C_sqrt_parts(self.a, alpha)
            root = _where(over, math.sqrt(scale) * (m * q), root)
        return root


@functools.cache
def region_constants(params: ProcessParams) -> RateRegionConstants:
    a, b = params.a, params.b
    ell_a = 10.0 / 9.0 + math.sqrt(64.0 + 9.0 * (a - 2.0) ** 2) / 9.0
    alpha_a = -(2.0 / 3.0) * (0.5 * a - 2.0 - math.sqrt(a * a - 2.0 * a + 4.0))
    return RateRegionConstants(a=a, b=b, ell_a=ell_a, alpha_a=alpha_a)


# ---------------------------------------------------------------------------
# One-dimensional functionals: S, Sigma, V, and the couple/triplets.
# ---------------------------------------------------------------------------


@_total
def rate_S(params: ProcessParams, x):
    """LDP rate of the time average S_T; zero at -a/b."""
    a, b = params.a, params.b
    return _where(x > 0.0, _sq_over(a + b * x, 8.0 * x), INF)


@_total
def rate_Sigma(params: ProcessParams, y):
    """LDP rate of the inverse time average Sigma_T; zero at -b/(a-2)."""
    a, b = params.a, params.b
    return _where(y > 0.0, _sq_over((a - 2.0) * y + b, 8.0 * y), INF)


@_total
def rate_V(params: ProcessParams, v):
    """LDP rate of V_T = S_T Sigma_T - 1; zero at 2/(a-2)."""
    a, b = params.a, params.b
    value = -0.25 * b * _sqrt((v + 1.0) * ((a - 2.0) ** 2 + 4.0 / v)) + 0.25 * a * b
    return _where(v > 0.0, value, INF)


@_total
def rate_pair(params: ProcessParams, x, y):
    """Joint rate of (S_T, Sigma_T) on the cone {x > 0, y > 0, xy > 1}."""
    a, b = params.a, params.b
    value = (
        y / (2.0 * (x * y - 1.0))
        + b * b * x / 8.0
        + (a - 2.0) ** 2 * y / 8.0
        + 0.25 * a * b
    )
    return _where((x > 0.0) & (y > 0.0) & (x * y - 1.0 > 0.0), value, INF)


@_total
def rate_triplet_x(params: ProcessParams, x, y, z):
    """Joint rate of (sqrt(X_T/T), S_T, Sigma_T) on {x >= 0, y,z > 0, yz > 1}."""
    a, b = params.a, params.b
    value = (
        0.25 * a * b
        + b * b * y / 8.0
        + (a - 2.0) ** 2 * z / 8.0
        - 0.25 * b * x * x
        + _sq(x * x + 2.0) * z / (8.0 * (y * z - 1.0))
    )
    return _where((x >= 0.0) & (y > 0.0) & (z > 0.0) & (y * z - 1.0 > 0.0), value, INF)


@_total
def rate_triplet_L(params: ProcessParams, y, z, t):
    """Joint rate of (S_T, Sigma_T, curlyL_T) on {t <= 0, y,z > 0, yz > 1}."""
    a, b = params.a, params.b
    value = (
        0.25 * a * b
        + b * b * y / 8.0
        + (a - 2.0) ** 2 * z / 8.0
        + 0.25 * a * t * t
        + (4.0 * z * (y * t * t + 1.0) + _pow(t, 4.0) * y) / (8.0 * (y * z - 1.0))
    )
    return _where((t <= 0.0) & (y > 0.0) & (z > 0.0) & (y * z - 1.0 > 0.0), value, INF)


# ---------------------------------------------------------------------------
# Estimator-couple rate functions J, K, I.
# ---------------------------------------------------------------------------


def _J_first_term(a: float, b: float, alpha, beta):
    # k u^2, as (k u) u where u^2 overflows (huge alpha, or beta next to 0):
    # there k is tiny and the product can still be finite.
    k = (a - 2.0) ** 2 * beta / (8.0 * (2.0 - alpha))
    u = 1.0 + (2.0 - alpha) * b / (beta * (a - 2.0))
    sq = _sq(u)
    return _where(sq < INF, k * sq, (k * u) * u)


def _rate_J_branch_A(params: ProcessParams, alpha, beta):
    return _J_first_term(params.a, params.b, alpha, beta) + 2.0 * beta - params.b


def _rate_J_branch_B(params: ProcessParams, alpha, beta):
    b = params.b
    return _J_first_term(params.a, b, alpha, beta) - 0.25 * beta * _sq(1.0 - b / beta)


@_total
def rate_J(params: ProcessParams, alpha, beta):
    """Rate function of the tilde estimator couple; zero at (a, b)."""
    b = params.b
    branch_A = (alpha > 2.0) & (b / 3.0 <= beta) & (beta < 0.0) | (alpha < 2.0) & (beta > 0.0)
    branch_B = (alpha > 2.0) & (beta <= b / 3.0)
    value = _where((alpha == 2.0) & (beta == 0.0), -b, INF)
    # A branch is evaluated only where some point takes it, A over B where
    # both do (beta = b/3); np.where picks elementwise, so this keeps the bits.
    if _any(branch_B):
        value = _where(branch_B, _rate_J_branch_B(params, alpha, beta), value)
    if _any(branch_A):
        value = _where(branch_A, _rate_J_branch_A(params, alpha, beta), value)
    return value


def _K_common(a: float, b: float, alpha, beta):
    return 0.25 * a * (b - beta) - (alpha / (8.0 * beta)) * (b * b - beta * beta)


def _rate_K_branch_1(params: ProcessParams, alpha, beta):
    common = _K_common(params.a, params.b, alpha, beta)
    return common - (beta / alpha) * _sq(_SQRT2 + region_constants(params)._sqrt_C(alpha))


def _rate_K_branch_2(params: ProcessParams, alpha, beta):
    a = params.a
    return _K_common(a, params.b, alpha, beta) - beta * _sq(a - alpha) / (8.0 * (alpha - 2.0))


def _rate_K_combined(params: ProcessParams, alpha, beta, branch_1, branch_2):
    # The two branches with their alpha * beta terms cancelled by hand, so
    # beta is not squared.  Past the constant ab/4, every term is >= 0 on its
    # branch, so nothing cancels; branch 2 adds its exact -beta/4 last.  As
    # in rate_K, a branch is evaluated only where some point takes it.
    a, b = params.a, params.b
    alpha_b2 = alpha * (b * b)
    head = 0.25 * a * b - alpha_b2 / (8.0 * beta)
    # alpha b^2 overflows where |alpha| b^2 > 1.8e308, though K is finite;
    # only there does the head take (alpha / beta) b^2 / 8.
    over = abs(alpha_b2) == INF
    if _any(over):
        head = _where(over, 0.25 * a * b - (alpha / beta) * (b * b) / 8.0, head)
    value = INF
    if _any(branch_2):
        tail_2 = (head - 0.125 * beta * (a - 2.0) ** 2 / (alpha - 2.0)) - 0.25 * beta
        value = _where(branch_2, tail_2, value)
    if _any(branch_1):
        root = region_constants(params)._sqrt_C(alpha, 2.0)
        tail_1 = beta * (1.0 - (0.125 * a * a + 4.0 + 2.0 * root) / alpha)
        value = _where(branch_1, head + tail_1, value)
    return value


def _K_apex(a: float, b: float) -> float:
    # K at its apex (0, 0), the only point of the line beta = 0 where it is finite.
    return -0.25 * b * (4.0 - a + math.sqrt(a * a + 16.0))


@_total
def rate_K(params: ProcessParams, alpha, beta):
    """Rate function of the check estimator couple; zero at (a, b)."""
    a, b = params.a, params.b
    alpha_a = region_constants(params).alpha_a
    branch_1 = (beta < 0.0) & (0.0 < alpha) & (alpha <= alpha_a) | (beta > 0.0) & (alpha < 0.0)
    branch_2 = (beta < 0.0) & (alpha >= alpha_a)
    value = _where((alpha == 0.0) & (beta == 0.0), _K_apex(a, b), INF)
    # As in rate_J, a branch is evaluated only where some point takes it.
    if _any(branch_2):
        value = _where(branch_2, _rate_K_branch_2(params, alpha, beta), value)
    if _any(branch_1):
        value = _where(branch_1, _rate_K_branch_1(params, alpha, beta), value)
    # _K_common and the branch terms each hold alpha beta / 8, which cancel,
    # so the forms above lose about eps |alpha beta| / 8: all of K once
    # |alpha beta| nears K / eps, and they go negative.  _rate_K_combined
    # rounds only terms of total size K - ab/2 (ab/4 < 0, the rest >= 0).
    # It takes over where |alpha beta| / 8 exceeds twice that size, or where
    # the forms above overflow (+-inf or nan, as where beta^2 does).  Below
    # that the forms above keep their bits, every artifact's with them; on a
    # log grid to |alpha|, |beta| = 1e300 they are within 10 ulps of K (in
    # 80-digit mpmath) wherever K >= |ab|, and the combined form within 3.
    lossy = (abs(alpha * beta) > 16.0 * value - 8.0 * a * b) | (value == INF) | (value != value)
    lossy = (branch_1 | branch_2) & lossy
    if _any(lossy):
        combined = _rate_K_combined(params, alpha, beta, branch_1, branch_2)
        value = _where(lossy, combined, value)
    return value


@_total
def rate_I_mle(params: ProcessParams, alpha, beta):
    """Rate function of the MLE couple: pointwise min of rate_J and rate_K."""
    return _minimum(rate_J(params, alpha, beta), rate_K(params, alpha, beta))


# ---------------------------------------------------------------------------
# Marginal rate functions.
# ---------------------------------------------------------------------------


def _Ja_low(params: ProcessParams, alpha):
    a, b = params.a, params.b
    return 0.25 * b * (a - 6.0 - _sqrt((a - 2.0) ** 2 + 16.0 * (2.0 - alpha)))


def _Ja_high(params: ProcessParams, alpha):
    a, b = params.a, params.b
    return 0.25 * b * (a - _sqrt(alpha * ((a - 2.0) ** 2 / (alpha - 2.0) + 2.0)))


def _Ja(params: ProcessParams, alpha):
    ell_a = region_constants(params).ell_a
    return _where(alpha <= ell_a, _Ja_low(params, alpha), _Ja_high(params, alpha))


def _Jb(params: ProcessParams, beta):
    b = params.b
    return _where(beta <= b / 3.0, -0.25 * beta * _sq(1.0 - b / beta), 2.0 * beta - b)


def _Ka(params: ProcessParams, alpha):
    rc = region_constants(params)
    return _where(
        alpha < rc.alpha_a, rate_K(params, alpha, rc.beta_b(alpha)), _Ja_high(params, alpha)
    )


# Kb(beta) is the infimum of rate_K over alpha.  Its candidates:
#
# * Branch 2 (beta < 0, alpha >= alpha_a) is convex in alpha, with minimiser
#   alpha* = 2 + (a - 2) beta / b and minimum -(beta - b)^2 / (4 beta), the
#   relative entropy RE(alpha*, beta).  Where alpha* < alpha_a its minimum
#   is at alpha_a, which branch 1 covers.
# * Branch 1 (0 < alpha <= alpha_a for beta < 0, alpha < 0 for beta > 0),
#   searched in z = |b alpha / beta|, which stays O(1) at the minimiser as
#   |beta| -> 0 or inf.  With s = sqrt(C(alpha)) and z^2 = (b/beta)^2 alpha^2,
#   K = ab/4 + |b| z / 8 + beta + |b| (a^2/8 + 4 + 2 sqrt(2) s) / z, and dK/dz
#   has the sign of H(z) = z^2 - (a^2 + 32) - 2 sqrt(2) (a^2 + 16 - (a + 4)
#   alpha) / s, which is 8 F(alpha) for the stationarity condition
#   F = alpha (sqrt(2) + s)(alpha - a - 4) / (4 s) - (sqrt(2) + s)^2 +
#   ((b/beta)^2 - 1) alpha^2 / 8.  H < 0 below z = sqrt(a^2 + 32), and H > 0
#   above the cap of _kb_bracket, so each local minimum is an upward
#   crossing of H between them: one for beta > 0, at most one for beta < 0,
#   where a downward crossing (a local maximum) may follow and leave the
#   minimum at alpha_a.
#
# Each crossing is bracketed on _KB_NODES nodes in z and refined by
# _KB_STEPS Illinois steps; K is stationary there, so the root's error
# enters K squared.  Every step is elementwise, so a point gets the same
# bits as a float or inside an array.
_KB_NODES = 16
_KB_STEPS = 16


def _C_sqrt_parts(a: float, alpha):
    # sqrt(C(alpha)) = m q with m = a - alpha > 0 on branch 1, which stays
    # finite where (a - alpha)^2 overflows.
    m = a - alpha
    return m, _sqrt(_maximum(0.125 + (2.0 - alpha) / m / m, 0.0))


def _kb_slope(a: float, z, alpha):
    # H(z) of the notes above, at alpha = alpha(z).
    m, q = _C_sqrt_parts(a, alpha)
    return z * z - (a * a + 32.0) - 2.0 * _SQRT2 * ((a * a + 16.0) / m - (a + 4.0) * (alpha / m)) / q


def _kb_branch_1(a: float, b: float, beta, z, alpha):
    # K on branch 1 in z, with no alpha * beta terms to cancel.
    m, q = _C_sqrt_parts(a, alpha)
    return 0.25 * a * b + 0.125 * abs(b) * z + beta + abs(b) * (
        0.125 * a * a + 4.0 + 2.0 * _SQRT2 * m * q
    ) / z


def _kb_bracket(a: float, alpha_a: float):
    # z = sqrt(a^2 + 32) and the caps above which H > 0: for beta > 0 from
    # s >= (a - alpha) / sqrt(8), for beta < 0 from s >= s(alpha_a).  As a
    # numpy float, an s(alpha_a) that rounds to 0 (a next to 2) gives an
    # infinite cap instead of raising.
    m, q = _C_sqrt_parts(a, np.float64(alpha_a))
    base = a * a + 32.0
    return (
        math.sqrt(base),
        np.sqrt(base + 2.0 * _SQRT2 * (a * a + 16.0) / (m * q)),
        math.sqrt(base + 8.0 * (a + max(4.0, 16.0 / a)) + 8.0),
    )


def _illinois(fn, lo, hi, f_lo, f_hi):
    # Elementwise root of fn in [lo, hi], where f_lo < 0 <= f_hi: _KB_STEPS
    # steps of regula falsi, an end kept twice in a row having its value
    # halved (Illinois), and a bisection wherever the step leaves the bracket.
    kept = np.zeros_like(lo)
    x = lo
    for _ in range(_KB_STEPS):
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        fx = fn(x)
        up = fx >= 0.0
        f_hi = np.where(up, fx, np.where(kept < 0.0, 0.5 * f_hi, f_hi))
        f_lo = np.where(up, np.where(kept > 0.0, 0.5 * f_lo, f_lo), fx)
        hi = np.where(up, x, hi)
        lo = np.where(up, lo, x)
        kept = np.where(up, 1.0, -1.0)
    return x


def _Kb(params: ProcessParams, beta):
    if type(beta) is float:
        # The bracket is an array whatever beta is: a float runs as a
        # 1-element array, with warnings silenced as on _total's array path.
        with np.errstate(all="ignore"):
            return float(_Kb(params, np.array([beta]))[0])
    a, b = params.a, params.b
    alpha_a = region_constants(params).alpha_a
    flat = np.reshape(beta, -1)
    neg = flat < 0.0
    # alpha = unit * z on branch 1.
    scale = np.abs(flat / b)
    unit = np.where(neg, scale, -scale)
    z_a = alpha_a / scale
    z_lo, cap_neg, cap_pos = _kb_bracket(a, alpha_a)
    z_hi = np.where(neg, np.minimum(z_a, cap_neg), cap_pos)
    z = z_lo + (z_hi - z_lo)[:, None] * np.linspace(0.0, 1.0, _KB_NODES)
    h = _kb_slope(a, z, unit[:, None] * z)
    # Where z_hi < z_lo (beta < 0 with alpha_a below z_lo) the nodes leave
    # branch 1 and bracket nothing.
    up = (h[:, :-1] < 0.0) & (h[:, 1:] >= 0.0) & (z_hi > z_lo)[:, None]
    p, k = np.nonzero(up)
    root = _illinois(
        lambda x: _kb_slope(a, x, unit[p] * x), z[p, k], z[p, k + 1], h[p, k], h[p, k + 1]
    )
    out = np.full(flat.shape, INF)
    np.minimum.at(out, p, _kb_branch_1(a, b, flat[p], root, unit[p] * root))
    at_alpha_a = _kb_branch_1(a, b, flat, z_a, alpha_a)
    relative_entropy = _sq_over(flat - b, -4.0 * flat)
    out = np.minimum(out, np.where(neg, at_alpha_a, INF))
    out = np.minimum(out, np.where(neg & (2.0 + (a - 2.0) * flat / b >= alpha_a), relative_entropy, INF))
    return np.where(flat == 0.0, _K_apex(a, b), out).reshape(np.shape(beta))


def _scan_refine(fn, xs: np.ndarray, vals, xatol: float) -> tuple[float, float]:
    """(argmin, min) of fn from its values vals on the scan nodes xs, refined
    by a bounded search between the best node's neighbours that replaces the
    node only if it beats it."""
    i = int(np.argmin(vals))
    fun, x = minimize_bounded(
        fn, float(xs[max(i - 1, 0)]), float(xs[min(i + 1, len(xs) - 1)]), xatol=xatol
    )
    if fun < vals[i]:
        return x, fun
    return float(xs[i]), float(vals[i])


# Apex alpha of each surface: on the lines beta = 0 and alpha = apex, J and K
# are finite only at their apex (apex, 0).
_APEX_ALPHA = {"J": 2.0, "K": 0.0}


def marginal_inf_numeric(params: ProcessParams, which: str, axis: str, v: float) -> float:
    """Numeric 1-D infimum of rate_J or rate_K along one axis.

    ``which`` picks the surface (J or K); ``axis`` names the held coordinate:
    axis='a' holds alpha=v and minimizes over beta, axis='b' holds beta=v and
    minimizes over alpha, on the half-line from the surface's apex where the
    surface is finite.  It is the independent cross-check of the closed-form
    marginals Ja, Jb, Ka and Kb.
    """
    if which not in _APEX_ALPHA:
        raise DomainError(f"which must be 'J' or 'K', got {which!r}")
    if axis not in ("a", "b"):
        raise DomainError(f"axis must be 'a' or 'b', got {axis!r}")
    surface = rate_J if which == "J" else rate_K
    apex = _APEX_ALPHA[which]
    a, b = params.a, params.b
    lo = 1e-8
    if axis == "a":
        if v == apex:
            return surface(params, apex, 0.0)
        sign = -1.0 if v > apex else 1.0

        def fn(u):
            return surface(params, v, sign * u)

        probes = (0.1, -b, 1.0, -3.0 * b)
        hi = max(8.0, -8.0 * b)
    else:
        if v == 0.0:
            return surface(params, apex, 0.0)
        sign = 1.0 if v < 0.0 else -1.0

        def fn(u):
            return surface(params, apex + sign * u, v)

        probes = (0.5, 1.0, a, 2.0 * a) if v < 0.0 else (0.5, 1.0, a)
        hi = max(8.0, 2.0 * a)
        if which == "J":
            lo = 1e-7  # rate_J divides by 2 - alpha
    # The probes run as float calls: as a 4-element array each would pay
    # _total's numpy path for the same bits.  The margin grows with the
    # probes' minimum past 1e10, where + 10 would round away.
    best = min(fn(u) for u in probes)
    ceiling = best + max(10.0, 1e-9 * abs(best))
    while hi < 1e6 and fn(hi) < ceiling:
        hi *= 2.0
    xs = np.linspace(lo, hi, 241)
    if hi >= 1e6:
        # The bracket reached the cap, so the minimiser may lie far past it
        # (|beta| near sqrt|v| where alpha = v is held, |alpha| near |v|
        # where beta = v is): the bracket goes on in steps of 2^10, and its
        # tail is scanned on log-spaced nodes, four per decade.
        top = hi
        while top < 1e300 and fn(top) < ceiling:
            top *= 1024.0
        xs = np.union1d(xs, np.geomspace(hi, top, 1 + 4 * math.ceil(math.log10(top / hi))))
    if which == "K" and axis == "b" and v < 0.0:
        # K's branch 2 has an (alpha - 2)^-1 wall, so its minimum at
        # alpha* = 2 + (a - 2) v / b can sit in a valley narrower than the
        # linear spacing: nodes at 2 + 10^k resolve it.
        xs = np.union1d(xs, 2.0 + np.logspace(-6.0, 0.0, 7))
    return _scan_refine(fn, xs, fn(xs), 1e-11)[1]


_MARGINALS = {
    "Ja": _total(_Ja),
    "Jb": _total(_Jb),
    "Ka": _total(_Ka),
    "Kb": _total(_Kb),
    "Ia": _total(lambda params, v: _minimum(_Ja(params, v), _Ka(params, v))),
    "Ib": _total(lambda params, v: _minimum(_Jb(params, v), _Kb(params, v))),
}


def rate_marginal(params: ProcessParams, which: str, v):
    """Marginal rate functions: which in {Ja, Jb, Ka, Kb, Ia, Ib}.

    Ja, Jb, Ka use their closed piecewise forms.  Kb is the smaller of
    branch 2's relative entropy and branch 1 at its stationary point, a root
    found by a fixed number of elementwise steps; see the notes above _Kb.
    Ia and Ib are pointwise minima of the corresponding pair.  All six take
    arrays, and each element gets the bits of its float call.
    """
    try:
        marginal = _MARGINALS[which]
    except KeyError:
        raise DomainError(f"unknown marginal selector {which!r}") from None
    return marginal(params, v)


#: The closed-form rates by name: (rate of (params, *coordinates), the
#: coordinates' names).  The marginals are rate_marginal's own callables.
RATES = {
    "J": (rate_J, ("alpha", "beta")),
    "K": (rate_K, ("alpha", "beta")),
    "I": (rate_I_mle, ("alpha", "beta")),
    **{m: (fn, ("alpha" if m[1] == "a" else "beta",)) for m, fn in _MARGINALS.items()},
    "S": (rate_S, ("x",)),
    "Sigma": (rate_Sigma, ("y",)),
    "V": (rate_V, ("v",)),
    "pair": (rate_pair, ("x", "y")),
    "triplet_x": (rate_triplet_x, ("x", "y", "z")),
    "triplet_L": (rate_triplet_L, ("y", "z", "t")),
}


# ---------------------------------------------------------------------------
# Numerical inf-sup characterization of the MLE rate function.
#
# The MLE maps the quadruplet (x, y, z, t) = (sqrt(X_T/T), S, Sigma, curlyL)
# to (alpha, beta) through y = (x^2 - alpha)/beta and z = (t^2 + beta)/(2 -
# alpha), and I is the infimum of lambda_star over the preimage (Dembo &
# Zeitouni, Thm 4.2.1).  No path ends near a point with x > 0 and t < 0:
# x > 0 means X_T grows like T, so t = log(X_T)/T -> 0, and t < 0 means X_T
# -> 0, so x -> 0.  The infimum therefore runs over the two faces of the
# quadruplet's range, {t = 0}, where J lives, and {x = 0}, where K lives.
# Each face is one 1-D scan-and-refine through lambda_star.  Every point on
# a face has Newton term k = -x t / 2 = 0, so lambda_star's value there is
# its start value h(u0): the 121 scan nodes run as one array pass through
# that h(u0) (cgf._lambda_star_array), and the refine calls the float
# lambda_star, with the same bits at any node.  The special points (0, 0)
# and (2, 0) have 2-D preimages, each on one face: a 121 x 121 grid runs as
# one array pass, its row minima are the scan of an outer search, and the
# outer refine runs the 1-D face search across each row it tries.
# ---------------------------------------------------------------------------


def _face_min(params: ProcessParams, point, lo: float, hi: float) -> float:
    # Minimum of lambda_star over the face points point(u), u in [lo, hi]:
    # the best of 121 scan nodes, refined.  point maps floats to floats and
    # arrays to arrays, so the scan is one array pass and the refine calls
    # the float lambda_star, with the same bits at every node.
    nodes = np.linspace(lo, hi, 121)
    return _scan_refine(
        lambda u: lambda_star(params, *point(u)),
        nodes,
        _lambda_star_array(params, *point(nodes)),
        1e-10,
    )[1]


def _face_min_2d(
    params: ProcessParams, point, u_lo: float, u_hi: float, v_lo: float, v_hi: float
) -> float:
    # Minimum of lambda_star over the face points point(u, v) on a rectangle.
    # Row u of the 121 x 121 grid holds the scan nodes of _face_min at u, so
    # the row minima are the values of the outer scan in u, and the outer
    # refine calls _face_min across each row it tries.
    us = np.linspace(u_lo, u_hi, 121)
    grid = _lambda_star_array(params, *point(us[:, None], np.linspace(v_lo, v_hi, 121)))
    return _scan_refine(
        lambda u: _face_min(params, lambda v: point(u, v), v_lo, v_hi),
        us,
        grid.min(axis=1),
        1e-10,
    )[1]


def _infsup_faces(params: ProcessParams, alpha: float, beta: float) -> float:
    # beta != 0.  A face whose pinned coordinate leaves the cone is empty.
    a2 = 2.0 - alpha
    y0 = -alpha / beta
    if a2 == 0.0:
        # alpha = 2: t^2 + beta = (2 - alpha) z = 0 pins t at -sqrt(-beta)
        # and leaves z free, so the x = 0 face is searched over log z; the
        # t = 0 face is empty.
        t0 = -math.sqrt(-beta)
        return _face_min(params, lambda u: (0.0, y0, _libm(math.exp, u), t0), -20.0, 20.0)
    faces = [INF]
    z0 = beta / a2
    if z0 > 0.0:
        # t = 0: x >= sqrt(alpha) when beta > 0, x < sqrt(alpha) when beta < 0.
        if beta > 0.0:
            x_lo = math.sqrt(max(alpha, 0.0))
            x_hi = x_lo + 8.0
        else:
            x_lo, x_hi = 0.0, math.sqrt(alpha)
        faces.append(_face_min(
            params, lambda x: (x, (x * x - alpha) / beta, z0, 0.0), x_lo + 1e-9, x_hi
        ))
    if y0 > 0.0:
        # x = 0: the sign of z = (t^2 + beta)/(2 - alpha) bounds t.
        if beta > 0.0:
            t_lo, t_hi = -8.0, -1e-9
        elif alpha < 2.0:
            t_hi = -math.sqrt(-beta)
            t_lo = t_hi - 8.0
        else:
            t_lo, t_hi = -math.sqrt(-beta), -1e-9
        faces.append(_face_min(
            params, lambda t: (0.0, y0, (t * t + beta) / a2, t), t_lo, t_hi
        ))
    return min(faces)


@_total
def rate_I_infsup(params: ProcessParams, alpha: float, beta: float) -> float:
    """MLE rate via the inf-sup characterization, evaluated numerically.

    The outer infimum runs over the quadruplets (x, y, z, t) that the MLE
    maps to (alpha, beta); the inner supremum is the concave maximization
    performed by lambda_star.  The infimum is the smaller of two face
    searches, each a 1-D scan refined by a bounded search:

    * t = 0, where z = beta/(2 - alpha) > 0 and y = (x^2 - alpha)/beta, over x;
    * x = 0, where y = -alpha/beta > 0 and z = (t^2 + beta)/(2 - alpha), over
      t <= 0.  On alpha = 2, t is pinned at -sqrt(-beta) and the search runs
      over log z.

    Where both faces are empty, as on beta = 0 with 0 < alpha < 2, the value
    is +inf.  The special points (0, 0) and (2, 0) have 2-D preimages, each
    on one face, which a 2-D scan covers: the row minima of a grid, refined
    by a bounded search whose every call is a 1-D face search across a row.
    At (0, 0), x = 0 and z = t^2/2, over (log(-t), log(y z)); at (2, 0),
    x = sqrt(2) and t = 0, over (log y, log z).  Valid on
    D1 = {alpha <= 0, beta > 0}, D2 = {0 < alpha < 2},
    D3 = {alpha >= 2, beta < 0} and the two special points.  A NaN
    coordinate gives NaN, otherwise a +-inf coordinate gives +inf, as for
    the closed forms.  Unlike them it takes float coordinates only.

    Raises
    ------
    DomainError
        At a finite point outside D1, D2, D3 and the two special points.
    """
    # lambda_star runs on Python floats.
    alpha, beta = _real(alpha), _real(beta)
    in_d1 = alpha <= 0.0 and beta > 0.0
    in_d2 = 0.0 < alpha < 2.0
    in_d3 = alpha >= 2.0 and beta < 0.0
    special = (alpha == 0.0 and beta == 0.0) or (alpha == 2.0 and beta == 0.0)
    if not (in_d1 or in_d2 or in_d3 or special):
        raise DomainError(
            f"({alpha}, {beta}) is outside the inf-sup domain D1 u D2 u D3"
        )
    if beta != 0.0:
        return _infsup_faces(params, alpha, beta)
    if alpha == 0.0:
        # x = 0 and z = t^2/2, over u = log(-t) and v = log(y z) > 0.
        def point(u, v):
            e_u, e_2u, e_v = _libm(math.exp, u), _libm(math.exp, 2.0 * u), _libm(math.exp, v)
            return 0.0, 2.0 * e_v / e_2u, 0.5 * e_2u, -e_u

        return _face_min_2d(params, point, -20.0, 5.0, 1e-9, 20.0)
    if alpha == 2.0:
        # x = sqrt(2) and t = 0, over (log y, log z).
        return _face_min_2d(
            params,
            lambda u, v: (_SQRT2, _libm(math.exp, u), _libm(math.exp, v), 0.0),
            -20.0, 20.0, -20.0, 20.0,
        )
    # 0 < alpha < 2: x = sqrt(alpha) > 0 forces t = 0, where z = 0 is
    # outside the cone.
    return INF
