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
  on the fly to a PathFunctionals of per-path arrays; an ensemble steps a few
  blocks in lockstep, and records several horizons on its way to the last,
* deterministic SFC64 substreams keyed by (seed, namespace, index), so
  ensembles are reproducible for a given seed regardless of worker count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._elementwise import _check_positive, _check_real, _is_real, _real
from ._io import csv_text, write_text_atomic
from .errors import DomainError, RegimeError
from .functionals import PathFunctionals

__all__ = [
    "BLOCK_SIZE",
    "ProcessParams",
    "StationaryLaw",
    "Trajectory",
    "TransitionKernel",
    "bessel_log_i",
    "conditional_moments",
    "path_rng",
    "read_trajectory_csv",
    "sample_transition",
    "simulate_ensemble",
    "simulate_path",
    "stationary_law",
    "transition_density",
    "transition_kernel",
    "transition_log_density",
    "write_trajectory_csv",
]

_LOG2 = math.log(2.0)

#: Paths per independent substream block in ensemble simulation.  Fixed so that
#: results depend only on the master seed, never on the worker count.
BLOCK_SIZE = 4096

# Most blocks an ensemble job advances in lockstep.  Its arrays, about 60
# bytes a path, then take about 1 MB however many paths there are, so they
# stay in a core's L2 cache.
_LOCKSTEP_BLOCKS = 4


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

    Raises
    ------
    RegimeError
        If a value is not a finite real (an int or a float, Python's or
        numpy's, and not a bool), or a <= 2, b >= 0 or x0 <= 0: outside the
        regime where the large-deviation theory of this package applies.
    """

    a: float
    b: float
    x0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "x0"):
            v = getattr(self, name)
            f = _real(v) if _is_real(v) else math.nan
            if not math.isfinite(f):
                raise RegimeError(f"{name} must be a finite real, got {v!r}")
            object.__setattr__(self, name, f)
        if self.a <= 2.0:
            raise RegimeError(f"a must exceed 2 (ergodic regime), got a={self.a}")
        if self.b >= 0.0:
            raise RegimeError(f"b must be negative (ergodic regime), got b={self.b}")
        if self.x0 <= 0.0:
            raise RegimeError(f"x0 must be positive, got x0={self.x0}")


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


_SAMPLE_PATHS = 2  # the fewest paths of a sample covariance or standard error


def _check_count(what: str, value, least: int = 1) -> None:
    # A count is an int, Python's or numpy's, of at least ``least``; a bool
    # is not a count.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{what} must be at least {least}, got {value}")


def conditional_moments(params: ProcessParams, t: float, x: float) -> tuple[float, float]:
    """Mean and variance of X_{s+t} given X_s = x.

    The mean solves dm/dt = a + b m, giving m(t) = x e^{bt} - (a/b)(1 - e^{bt});
    the variance follows from the noncentral chi-squared transition
    representation.

    Raises
    ------
    DomainError
        If t or x is not a positive finite number.
    """
    _check_positive("horizon t", t)
    _check_positive("state x", x)
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
    ``noncentrality``.
    """

    scale: float
    noncentrality: float


def transition_kernel(params: ProcessParams, t: float, x: float) -> TransitionKernel:
    """Kernel constants for the exact transition over horizon t from state x.

    Raises
    ------
    DomainError
        If t or x is not a positive finite number.
    """
    _check_positive("horizon t", t)
    _check_positive("state x", x)
    b = params.b
    ebt = math.exp(b * t)
    c = math.expm1(b * t) / b
    return TransitionKernel(scale=c, noncentrality=x * ebt / c)


# ---------------------------------------------------------------------------
# Modified Bessel function of the first kind, in log space.
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def _lgamma_order(nu: float) -> float:
    # lgamma(nu + 1), refused where it overflows, past nu of about 2.5e305.
    # log I_nu(z) can still be a float there (about 5.3e305 at nu = z =
    # 1e306, DLMF 10.41.3), so the order is refused, not given a log of -inf.
    try:
        return math.lgamma(nu + 1.0)
    except OverflowError:
        raise DomainError(f"Bessel order nu={nu} is too large: lgamma(nu + 1) overflows") from None


def _log_iv_series(nu: float, z: float) -> float:
    # Ascending series I_nu(z) = (z/2)^nu sum_k (z/2)^(2k) / (k! Gamma(nu+k+1)).
    # Each term's log is taken directly, not as a running sum of ratio logs,
    # so its error does not grow with k; the terms are unimodal in k, and
    # the sum stops 50 e-folds past the largest one.  log(z/2) is taken as
    # log z - log 2, because z/2 underflows for the smallest z.
    #
    # Term k+1 over term k is (z/2)^2 / ((k+1)(nu+k+1)): at most 1 once
    # k+1 >= k*, the root of k (nu + k) = (z/2)^2, and at most 1/2 once
    # k+1 >= 2 k*.  So term 2 k* + 100 lies 69 e-folds below the largest,
    # and the sum takes no term past it.  That bound is what stops the sum
    # where nu is so large (past about 1e22) that a term's log, near
    # -nu log nu, cannot resolve a step of 50.
    log_half_z = math.log(z) - _LOG2
    k_root = z * (z / (2.0 * (nu + math.hypot(nu, z))))
    lgamma = math.lgamma
    log_terms = []
    peak = -math.inf
    # Term 0's lgamma overflows first; a later term's, only 1e304 terms in.
    _lgamma_order(nu)
    for k in range(math.ceil(2.0 * k_root) + 101):
        lt = 2 * k * log_half_z - lgamma(k + 1.0) - lgamma(nu + k + 1.0)
        log_terms.append(lt)
        if lt > peak:
            peak = lt
        elif lt < peak - 50.0:
            break
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
    """log I_nu(z) for finite nu >= 0 and z > 0, stable against overflow.

    Arguments z <= 100 + nu^2 use the ascending power series.  It stops 50
    e-folds past its largest term, and takes at most 2 k* + 101 terms, where
    k* <= z/2 solves k (nu + k) = (z/2)^2 and locates the largest term.
    Larger arguments use the large-argument expansion, which needs about
    twenty terms at most.  Against mpmath the error in log I is below
    1e-14 max(1, |log I|) over nu in [0, 50] and z in [1e-3, 1e4]; for z
    below ~1e-154, where z^2/4 underflows, the value is the series' leading
    term.

    Raises
    ------
    DomainError
        If z is not a positive finite number, nu not a nonnegative finite
        one, or the series is due and lgamma(nu + 1) overflows (nu > ~2.5e305).
    """
    if not 0.0 < _check_real("Bessel argument z", z) < math.inf:
        raise DomainError(f"Bessel argument must be positive and finite, got z={z}")
    if not 0.0 <= _check_real("Bessel order nu", nu) < math.inf:
        raise DomainError(f"Bessel order must be nonnegative and finite, got nu={nu}")
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
        If t, x or y is not a positive finite number, or the Bessel order
        (a - 2) / 2 is too large for bessel_log_i.
    """
    _check_positive("horizon t", t)
    _check_positive("state x", x)
    _check_positive("state y", y)
    a, b = params.a, params.b
    d = -b
    f = (a - 2.0) / 2.0
    u = 0.5 * d * t
    log_sinh_u = u + math.log(-math.expm1(-2.0 * u)) - _LOG2
    coth_u = 1.0 / math.tanh(u)
    log_z = math.log(d) + 0.5 * (math.log(x) + math.log(y)) - _LOG2 - log_sinh_u
    if log_z < -700.0:
        # Bessel argument underflows; use the leading series term directly.
        log_bessel = f * (log_z - _LOG2) - _lgamma_order(f)
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


def _steps_for(T: float, per_unit: float) -> int:
    # The grid over horizon T at per_unit steps per unit time:
    # max(2, round(per_unit T)) steps.
    _check_positive("horizon T", T)
    _check_positive("steps per unit time", per_unit)
    return max(2, round(per_unit * T))


def sample_transition(
    params: ProcessParams, t: float, x: float, rng: np.random.Generator
) -> float:
    """One exact draw of X_{s+t} given X_s = x.

    The transition is scale * chi^2_a(lam) (see transition_kernel).  For
    a > 1 it splits exactly as chi^2_{a-1} + (Z + sqrt(lam))^2, so the draw
    takes G ~ Gamma((a-1)/2), then Z ~ N(0, 1), from ``rng`` and returns
    scale * (2 G + (Z + sqrt(lam))^2), which is strictly positive.

    Raises
    ------
    DomainError
        If t or x is not a positive finite number.
    """
    _check_positive("state x", x)
    c, rate, shape = _step_constants(params, t)
    g = float(rng.standard_gamma(shape))
    return _step(x, g, float(rng.standard_normal()), c, rate)


@dataclass
class Trajectory:
    """Discrete skeleton of one path on a time grid starting at 0.

    The grid must be finite and strictly increasing with times[0] = 0 and
    values[0] = params.x0; all states are finite and strictly positive.
    Uniformity of the grid is *not* enforced here; quadrature code checks it
    and raises GridError, so synthetic non-uniform grids can exist for
    testing.
    """

    times: np.ndarray
    values: np.ndarray
    params: ProcessParams

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.ndim != 1 or self.values.ndim != 1:
            raise DomainError("times and values must be one-dimensional")
        if self.times.shape != self.values.shape:
            raise DomainError(
                f"times and values must have equal length, "
                f"got {self.times.size} and {self.values.size}"
            )
        if self.times.size < 1:
            raise DomainError("trajectory needs at least one grid point")
        if self.times[0] != 0.0:
            raise DomainError(f"grid must start at 0, got times[0]={self.times[0]}")
        # Written so that nan fails them; times[0] = 0 and increasing times
        # are finite when the last one is.
        if not (np.all(np.diff(self.times) > 0.0) and self.times[-1] < np.inf):
            raise DomainError("grid times must be finite and strictly increasing")
        if not np.all((self.values > 0.0) & (self.values < np.inf)):
            raise DomainError("all states must be finite and strictly positive")
        if self.values[0] != self.params.x0:
            raise DomainError(
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

    Raises
    ------
    DomainError
        If T is not a positive finite number, or n_steps is not an integer
        of at least 1.
    """
    _check_positive("horizon T", T)
    _check_count("n_steps", n_steps)
    c, rate, shape = _step_constants(params, T / n_steps)
    g = rng.standard_gamma(shape, n_steps).tolist()
    z = rng.standard_normal(n_steps).tolist()
    x = params.x0
    values = [x]
    append = values.append
    for gk, zk in zip(g, z):
        x = _step(x, gk, zk, c, rate)
        append(x)
    times = np.linspace(0.0, T, n_steps + 1)
    return Trajectory(times=times, values=np.array(values), params=params)


# ---------------------------------------------------------------------------
# Deterministic substreams and ensemble simulation.
# ---------------------------------------------------------------------------


def _coerce_seed(rng: int | np.random.Generator) -> int:
    if isinstance(rng, bool):
        raise DomainError(f"seed must be an unsigned 64-bit integer, got {rng}")
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be an unsigned 64-bit integer, got {seed}")
        return seed
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**64, dtype=np.uint64))
    raise DomainError(f"seed must be an int or a numpy Generator, got {rng!r}")


def _substream(master_seed: int, namespace: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.SFC64(seq))


def path_rng(master_seed: int, path_index: int) -> np.random.Generator:
    """Independent generator for one standalone path of a keyed family."""
    return _substream(master_seed, 1, path_index)


def _simulate_blocks(
    params: ProcessParams,
    dt: float,
    horizons: list[tuple[int, float]],
    seed: int,
    start: int,
    stop: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    # Paths start..stop, which begin and end on block boundaries, advanced in
    # lockstep by steps of dt to the last of the horizons, (n, T) pairs with
    # T / n == dt sorted by n.  Each step, every block fills its slice of g
    # and then of z from its own substream, so a block draws what it would
    # draw alone; the shared step and the trapezoid update then run over all
    # the paths.  At each horizon it records (X_T, S_T, Sigma_T), which close
    # the trapezoid sums as a run ending there does, with the same bits.
    c, rate, shape = _step_constants(params, dt)
    width = stop - start
    g, z = np.empty(width), np.empty(width)
    fills = []
    for i in range(0, width, BLOCK_SIZE):
        rng = _substream(seed, 0, (start + i) // BLOCK_SIZE)
        fills.append((rng, g[i : i + BLOCK_SIZE], z[i : i + BLOCK_SIZE]))
    x = np.full(width, params.x0)
    acc_x = 0.5 * x
    acc_inv = 0.5 / x
    ends: dict[int, list[float]] = {}
    for n, T in horizons:
        ends.setdefault(n, []).append(T)
    records = []
    n_last = horizons[-1][0]
    for k in range(1, n_last + 1):
        for rng, g_block, z_block in fills:
            rng.standard_gamma(shape, out=g_block)
            rng.standard_normal(out=z_block)
        x = _step(x, g, z, c, rate, np.sqrt)
        inv = np.reciprocal(x)
        for T in ends.get(k, ()):
            w = dt / T
            records.append((x, (acc_x + 0.5 * x) * w, (acc_inv + 0.5 * inv) * w))
        if k < n_last:
            acc_x += x
            acc_inv += inv
    return records


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


def _simulate_horizons(
    params: ProcessParams,
    horizons: list[tuple[int, float]],
    n_paths: int,
    rng: int | np.random.Generator,
    n_workers: int = 1,
) -> list[PathFunctionals]:
    # One ensemble of n_paths paths stepped to the longest of the horizons,
    # (n_steps, T) pairs that share one step T / n_steps, in any order and
    # possibly repeated.  Returns one record per horizon, in their order;
    # each has the bits of simulate_ensemble(params, T, n_steps, n_paths,
    # rng), since the paths and their draws do not depend on where they stop.
    for n_steps, T in horizons:
        _check_positive("horizon T", T)
        _check_count("n_steps", n_steps)
    _check_count("n_paths", n_paths)
    _check_count("n_workers", n_workers)
    seed = _coerce_seed(rng)
    stops = sorted(set(horizons))
    dt = stops[-1][1] / stops[-1][0]
    # Job j advances blocks j n_blocks // n_jobs up to the next job's first
    # block: contiguous runs of whole blocks, at least one per worker and
    # none longer than _LOCKSTEP_BLOCKS blocks.
    n_blocks = -(-n_paths // BLOCK_SIZE)
    n_jobs = max(min(n_workers, n_blocks), -(-n_blocks // _LOCKSTEP_BLOCKS))
    edges = [min(n_paths, j * n_blocks // n_jobs * BLOCK_SIZE) for j in range(n_jobs + 1)]
    jobs = [(params, dt, stops, seed, lo, hi) for lo, hi in zip(edges, edges[1:])]
    parts = _map_jobs(_simulate_blocks, jobs, n_workers)
    records = {}
    for (n_steps, T), columns in zip(stops, zip(*parts)):
        x_T, S, Sigma = (np.concatenate(column) for column in zip(*columns))
        records[n_steps, T] = PathFunctionals(float(T), params.x0, x_T, S, Sigma)
    return [records[h] for h in horizons]


def simulate_ensemble(
    params: ProcessParams,
    T: float,
    n_steps: int,
    n_paths: int,
    rng: int | np.random.Generator,
    n_workers: int = 1,
) -> PathFunctionals:
    """Simulate n_paths exact paths, reduced on the fly to their observables.

    The result is a PathFunctionals of per-path arrays; no path is stored.
    Paths are partitioned into fixed blocks of BLOCK_SIZE; block j draws from
    its own SFC64 substream keyed by (master seed, j), so the output is a
    deterministic function of the seed alone.  Each step, every block draws
    its Gamma variates, then its normals, and the transition step of
    sample_transition then moves the paths of up to four consecutive blocks
    at once, in this process unless ``n_workers`` > 1.  ``n_workers`` only
    sets how many processes share the blocks, never the result.  A path's
    draws do not depend on T, so the first n steps of a longer run with the
    same step T / n_steps and seed are this run's paths: the harness's tail
    slopes record several horizons on one run.

    Raises
    ------
    DomainError
        If T is not a positive finite number, n_steps, n_paths or n_workers
        is not an integer of at least 1, or the seed is not an unsigned
        64-bit integer or a numpy Generator.
    """
    return _simulate_horizons(params, [(n_steps, T)], n_paths, rng, n_workers)[0]


# ---------------------------------------------------------------------------
# Trajectory CSV round-trip.
# ---------------------------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Write the skeleton atomically: the csv_text table of columns ``t,x``.

    read_trajectory_csv gives back the same floats, and a trajectory always
    gives the same bytes, so ``cir-ldp simulate`` writes the same files for a
    seed whatever ``--workers`` is.
    """
    write_text_atomic(path, csv_text(("t", "x"), (traj.times, traj.values)))


def read_trajectory_csv(path: str, params: ProcessParams) -> Trajectory:
    """Read a trajectory written by write_trajectory_csv.

    The first line must be the header ``t,x``.  Every later line is a row of
    exactly two comma-separated numbers; each parses to the float that
    ``float`` gives for its text, bit for bit.  Empty lines are skipped, and
    CRLF line ends read as LF.  A line of another shape, such as one or three
    fields or only blanks, raises DomainError, as does a file with no rows.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.rstrip("\n") != "t,x":
            raise DomainError(f"unexpected trajectory CSV header: {header!r}")
        with warnings.catch_warnings():
            # A file with no rows raises the DomainError below, not a warning.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                data = np.loadtxt(fh, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
            except ValueError as exc:
                raise DomainError(f"trajectory CSV {path!r}: {exc}") from None
    if data.size == 0:
        raise DomainError(f"trajectory CSV {path!r} has no rows")
    if data.shape[1] != 2:
        raise DomainError(f"trajectory CSV rows need 2 fields t,x, got {data.shape[1]}")
    # Contiguous copies: the functionals' dot products then see the same
    # memory layout, and so give the same bits, as for a simulated path.
    return Trajectory(times=data[:, 0].copy(), values=data[:, 1].copy(), params=params)
