"""Path functionals and the four estimator couples built from them.

A continuous-record trajectory enters estimation only through a handful of
observables: the terminal state, the time averages of X_t and 1/X_t, and the
terminal log.  This module reduces a stored or streamed trajectory to those
observables (trapezoid rule on the uniform grid) and evaluates the maximum
likelihood estimator of (a, b) together with its simplified variants.

Every formula is elementwise: the observables and the estimates are floats
for one path, or equal-length arrays for an ensemble, and ``ESTIMATORS``
names the four couples.  A record holds five observables and forms each of
the other five once, on first read, so a reader of S, Sigma or X_T alone
pays for no log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

import numpy as np

from ._elementwise import _check_positive, _libm, _sqrt, _where
from .errors import DegenerateError, DomainError, GridError

if TYPE_CHECKING:
    from .cir_model import Trajectory

__all__ = [
    "ESTIMATORS",
    "EstimatePair",
    "PathFunctionals",
    "compute_functionals",
    "estimate_check",
    "estimate_combined",
    "estimate_mle",
    "estimate_tilde",
    "ito_log_integral",
]

#: Degeneracy threshold on V before any estimator division.
EPS_V = 1e-12

@dataclass(frozen=True)
class PathFunctionals:
    """Observables over the horizon T of one path (floats) or many (arrays).

    PathFunctionals(T, x0, x_T, S, Sigma) holds a stored trajectory's
    reduced quantities (compute_functionals) or an ensemble's (the sampler);
    S and Sigma come from one trapezoid rule.  The other five fields are
    formed once, on first read, and L and curlyL share one log of X_T.
    Until then they are absent from the instance's ``__dict__``; they are
    never dataclass fields, so ``repr`` and ``==`` see the five arguments.

    Attributes
    ----------
    T : float
        Horizon.
    x0, x_T : float
        Starting and terminal states.
    S : float
        Time average of X_t (trapezoid).
    Sigma : float
        Time average of 1/X_t (trapezoid).
    xT_over_T : float
        X_T / T.
    sqrt_xT_over_T : float
        sqrt(X_T / T).
    L : float
        (log X_T - log x0) / T.
    curlyL : float
        -sqrt(-log(X_T)/T) when X_T < 1, else log(X_T)/T.
    V : float
        S * Sigma - 1; nonnegative by the Cauchy-Schwarz inequality on the
        quadrature weights, and zero only for constant paths.

    Raises
    ------
    DomainError
        If T or x0 is not a positive, finite real, or an X_T is not
        positive (a NaN is not).
    """

    T: float
    x0: float
    x_T: float
    S: float
    Sigma: float

    def __post_init__(self) -> None:
        _check_positive("horizon T", self.T)
        _check_positive("starting state x0", self.x0)
        try:
            positive = np.all(self.x_T > 0.0)
        except TypeError:
            positive = False
        if not positive:
            raise DomainError(f"terminal state x_T must be positive, got {self.x_T!r}")

    @cached_property
    def _log_x_T(self):
        return _libm(math.log, self.x_T)

    @cached_property
    def xT_over_T(self):
        return self.x_T / self.T

    @cached_property
    def sqrt_xT_over_T(self):
        return _sqrt(self.xT_over_T)

    @cached_property
    def L(self):
        return (self._log_x_T - math.log(self.x0)) / self.T

    @cached_property
    def curlyL(self):
        log_x_T, T = self._log_x_T, self.T
        return _where(self.x_T < 1.0, -_sqrt(abs(log_x_T) / T), log_x_T / T)

    @cached_property
    def V(self):
        return self.S * self.Sigma - 1.0


def compute_functionals(traj: Trajectory) -> PathFunctionals:
    """Reduce a trajectory to its estimation observables.

    S and Sigma are trapezoid averages on the uniform grid; the grid must
    have at least two points and constant spacing.

    Raises
    ------
    GridError
        If the trajectory has fewer than two points or a non-uniform grid.
    """
    times = traj.times
    values = traj.values
    if times.size < 2:
        raise GridError("need at least two grid points for quadrature")
    steps = np.diff(times)
    dt = steps.mean()
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        raise GridError("time grid is not uniform; trapezoid weights invalid")
    T = float(times[-1])
    w = np.ones_like(values)
    w[0] = 0.5
    w[-1] = 0.5
    S = float(np.dot(w, values)) * dt / T
    Sigma = float(np.dot(w, 1.0 / values)) * dt / T
    return PathFunctionals(T, float(values[0]), float(values[-1]), S, Sigma)


def ito_log_integral(pf: PathFunctionals) -> float:
    """The stochastic integral of dX_t / X_t over [0, T].

    Recovered through the Ito identity as T*L + 2*T*Sigma; no direct
    stochastic integration is ever performed.
    """
    return pf.T * pf.L + 2.0 * pf.T * pf.Sigma


@dataclass(frozen=True)
class EstimatePair:
    """A candidate (alpha, beta) point in parameter space, or one per path."""

    alpha: float
    beta: float


def _checked_v(pf: PathFunctionals):
    # A NaN V is not below the threshold, so it passes.
    low = pf.V <= EPS_V
    if np.any(low):
        raise DegenerateError(
            f"V={np.nanmin(pf.V)} is below the degeneracy threshold {EPS_V} on "
            f"{np.count_nonzero(low)} path(s); such a path is (numerically) constant"
        )
    return pf.V


def estimate_mle(pf: PathFunctionals) -> EstimatePair:
    """Maximum likelihood estimator of (a, b) from a continuous record.

    Raises
    ------
    DegenerateError
        If V <= EPS_V on any path.
    """
    v = _checked_v(pf)
    alpha = (pf.S * (2.0 * pf.Sigma + pf.L) - pf.xT_over_T) / v
    beta = ((pf.xT_over_T - 2.0) * pf.Sigma - pf.L) / v
    return EstimatePair(alpha=alpha, beta=beta)


def estimate_tilde(pf: PathFunctionals) -> EstimatePair:
    """Simplified estimator dropping the L term from the MLE."""
    v = _checked_v(pf)
    alpha = (2.0 * pf.S * pf.Sigma - pf.xT_over_T) / v
    beta = (pf.xT_over_T - 2.0) * pf.Sigma / v
    return EstimatePair(alpha=alpha, beta=beta)


def estimate_check(pf: PathFunctionals) -> EstimatePair:
    """Simplified estimator dropping the X_T/T term from the MLE."""
    v = _checked_v(pf)
    alpha = pf.S * (2.0 * pf.Sigma + pf.L) / v
    beta = (-2.0 * pf.Sigma - pf.L) / v
    return EstimatePair(alpha=alpha, beta=beta)


def estimate_combined(pf: PathFunctionals) -> EstimatePair:
    """Tilde estimator where X_T >= 1, check estimator elsewhere.

    X_T >= 1 is read as curlyL >= 0, the test PathFunctionals makes: X_T / T
    times T can round below 1 at X_T = 1.
    """
    upper = pf.curlyL >= 0.0
    tilde = estimate_tilde(pf)
    check = estimate_check(pf)
    return EstimatePair(
        alpha=_where(upper, tilde.alpha, check.alpha),
        beta=_where(upper, tilde.beta, check.beta),
    )


#: The estimator couples by name, in the order artifacts list them.
ESTIMATORS: dict[str, Callable[[PathFunctionals], EstimatePair]] = {
    "mle": estimate_mle,
    "tilde": estimate_tilde,
    "check": estimate_check,
    "combined": estimate_combined,
}
