"""Exact simulation and transition law of the squared radial Ornstein-Uhlenbeck process.

The process solves dX_t = (a + b X_t) dt + 2 sqrt(X_t) dB_t with a > 2 and
b < 0, so it is ergodic and strictly positive.  Everything here works with the
exact transition law (a scaled noncentral chi-squared distribution): there is
no Euler scheme, hence no discretization bias in the law of the simulated
skeleton and no risk of negative states.

Contents:

* parameter validation and the stationary Gamma law,
* conditional moments and the transition density (log-space, via a modified
  Bessel function of the first kind),
* one exact transition step, X' = c (chi^2_{a-1} + (Z + sqrt(lambda))^2),
  shared by the scalar draw, the stored path and large path ensembles reduced
  on the fly to time averages,
* deterministic substream derivation so ensembles are reproducible for a
  given seed regardless of worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._io import write_text_atomic
from .errors import DomainError, RegimeError

__all__ = [
    "BLOCK_SIZE",
    "EnsembleSummary",
    "ProcessParams",
    "StationaryLaw",
    "Trajectory",
    "TransitionKernel",
    "bessel_log_i",
    "conditional_moments",
    "default_workers",
    "path_rng",
    "read_trajectory_csv",
    "sample_transition",
    "simulate_ensemble",
    "simulate_path",
    "stationary_law",
    "transition_density",
    "transition_kernel",
    "transition_log_density",
    "validate_params",
    "write_trajectory_csv",
]

_LOG2 = math.log(2.0)

#: Paths per independent substream block in ensemble simulation.  Fixed so that
#: results depend only on the master seed, never on the worker count.
BLOCK_SIZE = 4096


@dataclass(frozen=True)
class ProcessParams:
    """Model parameters (a, b, x0) restricted to the ergodic regime.

    Attributes
    ----------
    a : float
        Dimensional parameter; must satisfy a > 2.
    b : float
        Drift parameter (units 1/time); must satisfy b < 0.
    x0 : float
        Starting state; must be strictly positive.  Defaults to 1.
    """

    a: float
    b: float
    x0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "x0"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise RegimeError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.a <= 2.0:
            raise RegimeError(f"a must exceed 2 (ergodic regime), got a={self.a}")
        if self.b >= 0.0:
            raise RegimeError(f"b must be negative (ergodic regime), got b={self.b}")
        if self.x0 <= 0.0:
            raise RegimeError(f"x0 must be positive, got x0={self.x0}")


def validate_params(a: float, b: float, x0: float = 1.0) -> ProcessParams:
    """Validate (a, b, x0) and return an immutable ProcessParams.

    Raises
    ------
    RegimeError
        If a <= 2, b >= 0, or x0 <= 0 (outside the regime where the
        large-deviation theory implemented by this package applies).
    """
    return ProcessParams(a, b, x0)


@dataclass(frozen=True)
class StationaryLaw:
    """Gamma(shape, scale) stationary distribution and its key moments."""

    shape: float
    scale: float
    mean: float
    mean_inverse: float
    variance: float


def stationary_law(params: ProcessParams) -> StationaryLaw:
    """Stationary law of the process: Gamma(a/2, scale -2/b).

    The long-run time averages of X_t and 1/X_t converge to ``mean`` = -a/b
    and ``mean_inverse`` = -b/(a-2) respectively; the latter is finite
    precisely because a > 2.
    """
    a, b = params.a, params.b
    return StationaryLaw(
        shape=a / 2.0,
        scale=-2.0 / b,
        mean=-a / b,
        mean_inverse=-b / (a - 2.0),
        variance=2.0 * a / (b * b),
    )


def conditional_moments(params: ProcessParams, t: float, x: float) -> tuple[float, float]:
    """Mean and variance of X_{s+t} given X_s = x.

    The mean solves dm/dt = a + b m, giving m(t) = x e^{bt} - (a/b)(1 - e^{bt});
    the variance follows from the noncentral chi-squared transition
    representation.

    Raises
    ------
    DomainError
        If t <= 0 or x <= 0.
    """
    if t <= 0.0:
        raise DomainError(f"horizon t must be positive, got {t}")
    if x <= 0.0:
        raise DomainError(f"state x must be positive, got {x}")
    a, b = params.a, params.b
    ebt = math.exp(b * t)
    c = math.expm1(b * t) / b
    mean = x * ebt + (a / b) * math.expm1(b * t)
    var = 2.0 * a * c * c + 4.0 * c * ebt * x
    return mean, var


@dataclass(frozen=True)
class TransitionKernel:
    """Scaled noncentral chi-squared transition kernel over one horizon.

    ``X_{s+t} | X_s = x`` equals ``scale * W`` where W is noncentral
    chi-squared with ``params.a`` degrees of freedom and noncentrality
    ``noncentrality``.  ``d0 = -b`` and ``f0 = (a-2)/2`` are the kernel's
    decay rate and Bessel order; they coincide with the dual variables of the
    limiting cumulant generating function at the origin.
    """

    d0: float
    f0: float
    t: float
    scale: float
    noncentrality: float


def transition_kernel(params: ProcessParams, t: float, x: float) -> TransitionKernel:
    """Kernel constants for the exact transition over horizon t from state x."""
    if t <= 0.0:
        raise DomainError(f"horizon t must be positive, got {t}")
    if x <= 0.0:
        raise DomainError(f"state x must be positive, got {x}")
    a, b = params.a, params.b
    ebt = math.exp(b * t)
    c = math.expm1(b * t) / b
    return TransitionKernel(
        d0=-b,
        f0=(a - 2.0) / 2.0,
        t=float(t),
        scale=c,
        noncentrality=x * ebt / c,
    )


# ---------------------------------------------------------------------------
# Modified Bessel function of the first kind, in log space.
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def _log_iv_series(nu: float, z: float) -> float:
    # Ascending series I_nu(z) = (z/2)^nu sum_k (z/2)^(2k) / (k! Gamma(nu+k+1)).
    # Each term's log is taken directly, not as a running sum of ratio logs,
    # so its error does not grow with k; the terms are unimodal in k, and
    # the sum stops 50 e-folds past the largest one.  log(z/2) is taken as
    # log z - log 2, because z/2 underflows for the smallest z.
    log_half_z = math.log(z) - _LOG2
    lgamma = math.lgamma
    log_terms = []
    peak = -math.inf
    k = 0
    while True:
        lt = 2 * k * log_half_z - lgamma(k + 1.0) - lgamma(nu + k + 1.0)
        log_terms.append(lt)
        if lt > peak:
            peak = lt
        elif lt < peak - 50.0:
            break
        k += 1
    s = math.fsum([math.exp(t - peak) for t in log_terms])
    return nu * log_half_z + peak + math.log(s)


def _log_iv_large(nu: float, z: float) -> float:
    # e^z / sqrt(2 pi z) sum_k (-1)^k a_k(nu) / z^k (DLMF 10.40.1), with
    # a_k / a_{k-1} = (4 nu^2 - (2k-1)^2) / (8k).  For z > 100 + nu^2 the
    # k-th term ratio is below max(1/(2k), k/(2z)) in size, so the terms
    # fall below 1e-17 within about twenty, and the sum stays near 1.
    mu = 4.0 * nu * nu
    terms = [1.0]
    k = 1
    while abs(terms[-1]) > 1e-17:
        terms.append(-terms[-1] * (mu - (2 * k - 1) ** 2) / (8 * k * z))
        k += 1
    return z - 0.5 * (_LOG_2PI + math.log(z)) + math.log(math.fsum(terms))


def bessel_log_i(nu: float, z: float) -> float:
    """log I_nu(z) for nu >= 0 and z > 0, stable against overflow.

    Arguments z <= 100 + nu^2 use the ascending power series, whose number
    of terms grows like z/2; larger arguments use the large-argument
    expansion, which needs about twenty terms at most.  Against mpmath the
    error in log I is below 1e-14 max(1, |log I|) over nu in [0, 50] and z in
    [1e-3, 1e4]; for z below ~1e-154, where z^2/4 underflows, the value is
    the series' leading term.

    Raises
    ------
    DomainError
        If z <= 0 or nu < 0.
    """
    if z <= 0.0:
        raise DomainError(f"Bessel argument must be positive, got z={z}")
    if nu < 0.0:
        raise DomainError(f"Bessel order must be nonnegative, got nu={nu}")
    if z <= 100.0 + nu * nu:
        return _log_iv_series(nu, z)
    return _log_iv_large(nu, z)


# ---------------------------------------------------------------------------
# Transition density.
# ---------------------------------------------------------------------------


def transition_log_density(params: ProcessParams, t: float, x: float, y: float) -> float:
    """log of the transition density p(t, x, y).

    Evaluates the sinh/coth closed form with Bessel order f0 = (a-2)/2 and
    rate d0 = -b entirely in log space, so it stays finite for horizons where
    sinh(d0 t / 2) would overflow.

    Raises
    ------
    DomainError
        If t, x, or y is nonpositive.
    """
    if t <= 0.0 or x <= 0.0 or y <= 0.0:
        raise DomainError(f"t, x, y must all be positive, got t={t}, x={x}, y={y}")
    a, b = params.a, params.b
    d = -b
    f = (a - 2.0) / 2.0
    u = 0.5 * d * t
    log_sinh_u = u + math.log1p(-math.exp(-2.0 * u)) - _LOG2
    coth_u = 1.0 / math.tanh(u)
    log_z = math.log(d) + 0.5 * (math.log(x) + math.log(y)) - _LOG2 - log_sinh_u
    if log_z < -700.0:
        # Bessel argument underflows; use the leading series term directly.
        log_bessel = f * (log_z - _LOG2) - math.lgamma(f + 1.0)
    else:
        log_bessel = bessel_log_i(f, math.exp(log_z))
    return (
        math.log(d)
        - 0.5 * f * (math.log(x) - math.log(y))
        - 2.0 * _LOG2
        - log_sinh_u
        + log_bessel
        - 0.25 * (a * b * t + d * (x + y) * coth_u + b * (x - y))
    )


def transition_density(params: ProcessParams, t: float, x: float, y: float) -> float:
    """Transition density p(t, x, y); see transition_log_density."""
    return math.exp(transition_log_density(params, t, x, y))


# ---------------------------------------------------------------------------
# Exact sampling.
# ---------------------------------------------------------------------------


def _step_constants(params: ProcessParams, dt: float) -> tuple[float, float, float]:
    # Scale c, noncentrality per unit of state e^{b dt}/c and Gamma shape
    # (a-1)/2 of one transition over dt.
    k = transition_kernel(params, dt, 1.0)
    return k.scale, k.noncentrality, 0.5 * (params.a - 1.0)


def _step(x, g, z, c: float, rate: float, sqrt=math.sqrt):
    # One exact transition from x, given G ~ Gamma((a-1)/2) and Z ~ N(0, 1):
    # c chi^2_a(lam) = c (chi^2_{a-1} + (Z + sqrt(lam))^2) with lam = rate x,
    # exact for a > 1.  Floats take math.sqrt, arrays np.sqrt; both are
    # correctly rounded, so the two forms give the same bits.
    u = z + sqrt(x * rate)
    return c * (2.0 * g + u * u)


def sample_transition(
    params: ProcessParams, t: float, x: float, rng: np.random.Generator
) -> float:
    """One exact draw of X_{s+t} given X_s = x.

    The transition is scale * chi^2_a(lam) (see transition_kernel).  For
    a > 1 it splits exactly as chi^2_{a-1} + (Z + sqrt(lam))^2, so the draw
    takes G ~ Gamma((a-1)/2), then Z ~ N(0, 1), from ``rng`` and returns
    scale * (2 G + (Z + sqrt(lam))^2), which is strictly positive.
    """
    if x <= 0.0:
        raise DomainError(f"state x must be positive, got {x}")
    c, rate, shape = _step_constants(params, t)
    g = float(rng.standard_gamma(shape))
    return _step(x, g, float(rng.standard_normal()), c, rate)


@dataclass
class Trajectory:
    """Discrete skeleton of one path on a time grid starting at 0.

    The grid must be strictly increasing with times[0] = 0 and
    values[0] = params.x0; all states are strictly positive.  Uniformity of
    the grid is *not* enforced here; quadrature code checks it and raises
    GridError, so synthetic non-uniform grids can exist for testing.
    """

    times: np.ndarray
    values: np.ndarray
    params: ProcessParams

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise ValueError("times and values must be one-dimensional")
        if self.times.shape != self.values.shape:
            raise ValueError(
                f"times and values must have equal length, "
                f"got {self.times.size} and {self.values.size}"
            )
        if self.times.size < 1:
            raise ValueError("trajectory needs at least one grid point")
        if self.times[0] != 0.0:
            raise ValueError(f"grid must start at 0, got times[0]={self.times[0]}")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("grid times must be strictly increasing")
        if np.any(self.values <= 0.0):
            raise ValueError("all states must be strictly positive")
        if self.values[0] != self.params.x0:
            raise ValueError(
                f"values[0]={self.values[0]} does not match x0={self.params.x0}"
            )

    def __len__(self) -> int:
        return int(self.times.size)


def simulate_path(
    params: ProcessParams, T: float, n_steps: int, rng: np.random.Generator
) -> Trajectory:
    """Exact skeleton on the uniform grid {0, T/n, ..., T} by chained transitions.

    Draws all n_steps Gamma variates from ``rng``, then all n_steps normals,
    and chains the transition step of sample_transition through them, so the
    result is a deterministic function of the generator state.
    """
    if T <= 0.0:
        raise DomainError(f"horizon T must be positive, got {T}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be at least 1, got {n_steps}")
    c, rate, shape = _step_constants(params, T / n_steps)
    g = rng.standard_gamma(shape, n_steps).tolist()
    z = rng.standard_normal(n_steps).tolist()
    values = [params.x0]
    for gk, zk in zip(g, z):
        values.append(_step(values[-1], gk, zk, c, rate))
    times = np.linspace(0.0, T, n_steps + 1)
    return Trajectory(times=times, values=np.array(values), params=params)


# ---------------------------------------------------------------------------
# Deterministic substreams and ensemble simulation.
# ---------------------------------------------------------------------------


def _coerce_seed(rng: int | np.random.Generator) -> int:
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        return seed
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**64, dtype=np.uint64))
    raise TypeError(f"expected an int seed or numpy Generator, got {type(rng)!r}")


def _substream(master_seed: int, namespace: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent generator for one standalone path of a keyed family."""
    return _substream(master_seed, 1, path_index)


def default_workers() -> int:
    """Worker count from the CIR_LDP_THREADS environment variable (default 1)."""
    try:
        return max(1, int(os.environ.get("CIR_LDP_THREADS", "")))
    except ValueError:
        return 1


@dataclass
class EnsembleSummary:
    """Terminal states and trapezoid time averages for an ensemble of paths.

    ``S`` and ``Sigma`` are the per-path trapezoid averages of X_t and 1/X_t
    on the simulation grid (the same quadrature rule the functionals module
    applies to stored trajectories), so estimators can be formed without ever
    materializing the paths.
    """

    x_T: np.ndarray
    S: np.ndarray
    Sigma: np.ndarray
    T: float
    n_steps: int


def _simulate_block(
    params: ProcessParams, T: float, n_steps: int, size: int, seed: int, block: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = _substream(seed, 0, block)
    dt = T / n_steps
    c, rate, shape = _step_constants(params, dt)
    x = np.full(size, params.x0)
    acc_x = 0.5 * x
    acc_inv = 0.5 / x
    for k in range(1, n_steps + 1):
        g = rng.standard_gamma(shape, size)
        x = _step(x, g, rng.standard_normal(size), c, rate, np.sqrt)
        if k < n_steps:
            acc_x += x
            acc_inv += np.reciprocal(x)
        else:
            acc_x += 0.5 * x
            acc_inv += 0.5 * np.reciprocal(x)
    w = dt / T
    return x, acc_x * w, acc_inv * w


def _map_jobs(fn, jobs: list[tuple], n_workers: int) -> list:
    """[fn(*job) for job in jobs], in this process for one job or one worker,
    else on a ProcessPoolExecutor of up to ``n_workers`` processes started by
    the platform's default method."""
    if n_workers <= 1 or len(jobs) == 1:
        return [fn(*job) for job in jobs]
    # Imported here: concurrent.futures.process and multiprocessing cost an
    # import of cir_ldp about 25 ms, which a run on one worker never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(n_workers, len(jobs))) as pool:
        return list(pool.map(fn, *zip(*jobs)))


def simulate_ensemble(
    params: ProcessParams,
    T: float,
    n_steps: int,
    n_paths: int,
    rng: int | np.random.Generator,
    n_workers: int | None = None,
) -> EnsembleSummary:
    """Simulate n_paths exact paths, reduced on the fly to (X_T, S_T, Sigma_T).

    Paths are partitioned into fixed blocks of BLOCK_SIZE; block j draws from
    its own PCG64DXSM substream keyed by (master seed, j), so the output is a
    deterministic function of the seed alone.  A block advances one step at a
    time: its Gamma variates, then its normals, then the transition step of
    sample_transition.  ``n_workers`` (default: the CIR_LDP_THREADS
    environment variable, else 1) only controls how many blocks run
    concurrently, never the result.
    """
    if T <= 0.0:
        raise DomainError(f"horizon T must be positive, got {T}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be at least 1, got {n_steps}")
    if n_paths < 1:
        raise DomainError(f"n_paths must be at least 1, got {n_paths}")
    seed = _coerce_seed(rng)
    if n_workers is None:
        n_workers = default_workers()
    jobs = [
        (params, T, n_steps, min(BLOCK_SIZE, n_paths - start), seed, start // BLOCK_SIZE)
        for start in range(0, n_paths, BLOCK_SIZE)
    ]
    parts = _map_jobs(_simulate_block, jobs, n_workers)
    x_T, S, Sigma = (np.concatenate(column) for column in zip(*parts))
    return EnsembleSummary(x_T=x_T, S=S, Sigma=Sigma, T=float(T), n_steps=n_steps)


# ---------------------------------------------------------------------------
# Trajectory CSV round-trip.
# ---------------------------------------------------------------------------


def _time_column(times: np.ndarray) -> list[str]:
    # The "t," prefix of every row.  All paths on one grid share it, so a
    # caller writing many of them formats it once.
    return [repr(t) + "," for t in times.tolist()]


def _write_csv(path: str, time_column: list[str], values: np.ndarray) -> None:
    # One "t,x" row per grid point, from a column made by _time_column.
    rows = [t + repr(x) + "\n" for t, x in zip(time_column, values.tolist())]
    write_text_atomic(path, "t,x\n" + "".join(rows))


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the skeleton, atomically, as a CSV file.

    The file has the header line ``t,x`` and then one row ``t,x`` per grid
    point, each value written as its shortest round-trip ``repr``, with LF
    line ends.  So read_trajectory_csv gives back the same floats, and a
    trajectory always gives the same bytes: ``cir-ldp simulate`` writes the
    same files for a seed whatever ``--workers`` is.
    """
    _write_csv(path, _time_column(traj.times), traj.values)


def read_trajectory_csv(path: str, params: ProcessParams) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    The first line must be the header ``t,x``.  Every later line is a row of
    exactly two comma-separated numbers; each parses to the float that
    ``float`` gives for its text, bit for bit.  Empty lines are skipped, and
    CRLF line ends read as LF.  A line of another shape, such as one or three
    fields or only blanks, raises ValueError, as does a file with no rows.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.rstrip("\n") != "t,x":
            raise ValueError(f"unexpected trajectory CSV header: {header!r}")
        data = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
    if data.size == 0:
        raise ValueError(f"trajectory CSV {path!r} has no rows")
    if data.shape[1] != 2:
        raise ValueError(f"trajectory CSV rows need 2 fields t,x, got {data.shape[1]}")
    # Contiguous copies: the functionals' dot products then see the same
    # memory layout, and so give the same bits, as for a simulated path.
    return Trajectory(times=data[:, 0].copy(), values=data[:, 1].copy(), params=params)
