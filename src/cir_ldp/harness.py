"""Monte Carlo experiments, check suites and figure-grid emitters.

The experiments validate the distributional limits of the estimators (CLT
with covariance 4 C^-1), the exponential decay of tail probabilities against
the closed-form rates, and produce the rate-surface and marginal-profile
grids as CSV.  ``CHECK_SUITES`` names the cross-checks of the closed forms
against independent numerics; each returns a JSON-ready report.  All
randomness flows through the deterministic substream scheme of cir_model,
so reports depend only on the master seed, never on worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import product
from typing import Callable, Sequence

import numpy as np

from ._elementwise import _check_real
from ._io import csv_text, report
from .cgf import lambda_star, legendre_transform_numeric
from .cir_model import (
    ProcessParams,
    _SAMPLE_PATHS,
    _check_count,
    _coerce_seed,
    _simulate_horizons,
    _steps_for,
    _substream,
    simulate_ensemble,
)
from .errors import DomainError, InconclusiveError
from .functionals import ESTIMATORS
from .rates import (
    _Ja_high,
    _Ja_low,
    _rate_J_branch_A,
    _rate_J_branch_B,
    _rate_K_branch_1,
    _rate_K_branch_2,
    marginal_inf_numeric,
    rate_I_infsup,
    rate_I_mle,
    rate_J,
    rate_K,
    rate_pair,
    rate_S,
    rate_Sigma,
    rate_V,
    rate_marginal,
    region_constants,
)

__all__ = [
    "CHECK_SUITES",
    "CltCovariance",
    "CltReport",
    "FIGURE_WINDOW",
    "INFSUP_POINTS",
    "LEGENDRE_QUAD_GRID",
    "ProfileCurves",
    "SLOPE_FUNCTIONALS",
    "SlopeReport",
    "SurfaceGrid",
    "clt_experiments",
    "clt_target_covariance",
    "profile_curves",
    "slope_experiment",
    "surface_grid",
]

@dataclass(frozen=True, eq=False)
class CltCovariance:
    """The asymptotic covariance 4 C^-1 of sqrt(T)(estimate - (a, b))."""

    C: np.ndarray
    target: np.ndarray

    @property
    def det_C(self) -> float:
        return float(self.C[0, 0] * self.C[1, 1] - self.C[0, 1] * self.C[1, 0])


def clt_target_covariance(params: ProcessParams) -> CltCovariance:
    """Asymptotic covariance matrix shared by all three estimator couples.

    C = [[-b/(a-2), 1], [1, -a/b]] has determinant 2/(a-2), so the target
    4 C^-1 evaluates in closed form to 2(a-2) [[-a/b, -1], [-1, -b/(a-2)]].
    """
    a, b = params.a, params.b
    C = np.array([[-b / (a - 2.0), 1.0], [1.0, -a / b]])
    s = 2.0 * (a - 2.0)
    target = np.array(
        [[-s * a / b, -s], [-s, -s * b / (a - 2.0)]]
    )
    return CltCovariance(C=C, target=target)


class _Report:
    """A report dataclass whose ``to_dict`` is its JSON envelope: the fields in
    ``_metrics`` are metrics, all others but ``params`` and ``passed`` settings."""

    _experiment: str
    _metrics: tuple[str, ...]

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        params, passed = values.pop("params"), values.pop("passed")
        # Arrays and tuples as plain lists, as JSON writes them.
        metrics = {k: np.asarray(values.pop(k)).tolist() for k in self._metrics}
        return report(self._experiment, params, values, metrics, passed)


@dataclass(frozen=True, eq=False)
class CltReport(_Report):
    params: ProcessParams
    estimator: str
    T: float
    n_paths: int
    n_steps: int
    seed: int
    mean: np.ndarray
    covariance: np.ndarray
    target: np.ndarray
    relative_deviations: np.ndarray
    tolerance: float
    passed: bool

    _experiment = "clt"
    _metrics = ("mean", "covariance", "target", "relative_deviations")


def clt_experiments(
    params: ProcessParams,
    estimators: Sequence[str],
    T: float,
    n_paths: int,
    rng,
    n_steps: int | None = None,
    n_workers: int = 1,
    tolerance: float = 0.15,
) -> list[CltReport]:
    """Empirical check of sqrt(T)(estimate - (a, b)) -> N(0, 4 C^-1) for each
    of ``estimators`` (names in ``functionals.ESTIMATORS``) on one ensemble.

    Each report compares the covariance of the scaled deviations to the
    closed-form target, entrywise within ``tolerance``.  The combined couple
    picks tilde or check per path; both are sqrt(T)-equivalent to the MLE,
    so its limit is the same 4 C^-1.  An ``n_paths`` that is not an integer
    of at least 2 raises DomainError: a covariance needs two samples.  So
    does a T that is not positive and finite, and, before any path is
    simulated, an empty ``estimators``.
    """
    if len(estimators) == 0:
        raise DomainError("estimators must be non-empty")
    for name in estimators:
        if name not in ESTIMATORS:
            raise DomainError(
                f"estimator must be one of {sorted(ESTIMATORS)}, got {name!r}"
            )
    _check_count("n_paths", n_paths, _SAMPLE_PATHS)
    seed = _coerce_seed(rng)
    if n_steps is None:
        n_steps = _steps_for(T, 200.0)
    ens = simulate_ensemble(params, T, n_steps, n_paths, seed, n_workers=n_workers)
    target = clt_target_covariance(params).target
    truth = np.array([params.a, params.b])
    run = {"params": params, "T": ens.T, "n_paths": n_paths, "n_steps": n_steps,
           "seed": seed, "target": target, "tolerance": tolerance}
    reports = []
    for name in estimators:
        est = ESTIMATORS[name](ens)
        dev = math.sqrt(ens.T) * (np.column_stack((est.alpha, est.beta)) - truth)
        cov = np.cov(dev, rowvar=False)
        rel = np.abs(cov - target) / np.abs(target)
        passed = bool(np.all(rel <= tolerance))
        reports.append(CltReport(
            estimator=name, mean=dev.mean(axis=0), covariance=cov, relative_deviations=rel,
            passed=passed, **run,
        ))
    return reports


#: Functional -> (ergodic mean, closed-form rate); the functional is read as
#: the PathFunctionals field of the same name.
SLOPE_FUNCTIONALS = {
    "S": (lambda p: -p.a / p.b, rate_S),
    "Sigma": (lambda p: -p.b / (p.a - 2.0), rate_Sigma),
    "V": (lambda p: 2.0 / (p.a - 2.0), rate_V),
}

# Fewest hits at the largest horizon for a slope to count.
_SLOPE_MIN_HITS = 50

# check slope's default threshold, as a multiple of the ergodic mean: past
# it, so the rate is positive in every regime (5 and 1 at (4, -1)).
_SLOPE_DEFAULT_SCALE = {"S": 1.25, "Sigma": 2.0, "V": 2.0}


@dataclass(frozen=True, eq=False)
class SlopeReport(_Report):
    params: ProcessParams
    functional: str
    c: float
    T_grid: tuple[float, ...]
    slopes: tuple[float, ...]
    hits: tuple[int, ...]
    n_paths: int
    n_steps_per_unit: int
    n_min: int
    seed: int
    target_rate: float
    tolerance: float
    upper_tail: bool
    passed: bool

    _experiment = "slope"
    _metrics = ("slopes", "hits", "target_rate", "upper_tail")


def slope_experiment(
    params: ProcessParams,
    functional: str,
    c: float,
    T_grid: Sequence[float],
    n_paths: int,
    rng,
    n_steps_per_unit: int = 50,
    n_workers: int = 1,
    tolerance: float = 0.30,
) -> SlopeReport:
    """Empirical decay slope -(1/T) log P(functional in the c-tail) per T.

    The tail direction is upward when c is above the ergodic mean of the
    functional and downward when it is below.  The slope at the largest T is
    compared to the closed-form rate within the (loose, finite-T) tolerance.

    Horizon T takes max(2, round(n_steps_per_unit T)) steps.  Horizons with
    the same step size share one ensemble (common random numbers): it runs
    to the longest of them, T_grid[i], from substream (seed, 2, i), and
    records the shorter ones on its way.  Each horizon's hits are those of
    its own simulate_ensemble run on that substream, so the largest
    horizon's hits, its slope and the verdict do not depend on the rest of
    the grid.

    Raises
    ------
    DomainError
        If c is not a finite number or is the ergodic mean, where the rate is
        0 and no slope can pass, or a horizon or ``n_steps_per_unit`` is not
        a positive finite number.
    InconclusiveError
        If the hit count at the largest T falls below 50.
    """
    if functional not in SLOPE_FUNCTIONALS:
        raise DomainError(
            f"functional must be one of {sorted(SLOPE_FUNCTIONALS)}, got {functional!r}"
        )
    if len(T_grid) == 0:
        raise DomainError("T_grid must be non-empty")
    if not math.isfinite(_check_real("c", c)):
        raise DomainError(f"c must be finite, got {c}")
    seed = _coerce_seed(rng)
    ergodic_mean, rate = SLOPE_FUNCTIONALS[functional]
    mean = ergodic_mean(params)
    if c == mean:
        raise DomainError(f"c={c} is the ergodic mean of {functional}, where its rate is 0")
    target = rate(params, c)
    upper = c > mean
    horizons = [(_steps_for(T, n_steps_per_unit), T) for T in T_grid]
    groups: dict[float, list[int]] = {}
    for i, (n_steps, T) in enumerate(horizons):
        groups.setdefault(T / n_steps, []).append(i)
    hit_counts = [0] * len(T_grid)
    for members in groups.values():
        longest = max(members, key=lambda i: T_grid[i])
        ensembles = _simulate_horizons(
            params, [horizons[i] for i in members], n_paths, _substream(seed, 2, longest),
            n_workers,
        )
        for i, ens in zip(members, ensembles):
            values = getattr(ens, functional)
            hit_counts[i] = int(np.count_nonzero(values >= c if upper else values <= c))
    slopes = [
        -math.log(hits / n_paths) / T if hits else math.inf
        for hits, T in zip(hit_counts, T_grid)
    ]
    i_max = int(np.argmax(T_grid))
    if hit_counts[i_max] < _SLOPE_MIN_HITS:
        raise InconclusiveError(
            f"only {hit_counts[i_max]} hits at T={T_grid[i_max]} "
            f"(need {_SLOPE_MIN_HITS}); increase n_paths or move c"
        )
    passed = abs(slopes[i_max] - target) <= tolerance * abs(target)
    return SlopeReport(
        params=params,
        functional=functional,
        c=c,
        T_grid=tuple(float(T) for T in T_grid),
        slopes=tuple(slopes),
        hits=tuple(hit_counts),
        n_paths=n_paths,
        n_steps_per_unit=n_steps_per_unit,
        n_min=_SLOPE_MIN_HITS,
        seed=seed,
        target_rate=target,
        tolerance=tolerance,
        upper_tail=upper,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Figure grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SurfaceGrid:
    """Rate surfaces J, K, I on an (alpha, beta) grid."""

    alphas: np.ndarray
    betas: np.ndarray
    J: np.ndarray
    K: np.ndarray
    I: np.ndarray

    def shared_branch_mask(self, params: ProcessParams) -> np.ndarray:
        """Nodes where J and K evaluate their common closed form."""
        alpha_a = region_constants(params).alpha_a
        A = self.alphas[:, None] >= alpha_a
        B = self.betas[None, :] <= params.b / 3.0
        return A & B

    def max_shared_diff(self, params: ProcessParams) -> float:
        mask = self.shared_branch_mask(params)
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(self.J[mask] - self.K[mask])))

    def to_csv(self) -> str:
        """``alpha,beta,J,K,I`` rows, alpha outermost."""
        al, be = np.meshgrid(self.alphas, self.betas, indexing="ij")
        cols = (al, be, self.J, self.K, self.I)
        return csv_text(("alpha", "beta", "J", "K", "I"), [c.ravel() for c in cols])


#: The figure window, surface_grid's default: (alpha_range, beta_range,
#: n_alpha, n_beta).
FIGURE_WINDOW = ((3.0, 5.0), (-4.0, -0.5), 41, 41)


def surface_grid(
    params: ProcessParams,
    alpha_range: tuple[float, float] = FIGURE_WINDOW[0],
    beta_range: tuple[float, float] = FIGURE_WINDOW[1],
    n_alpha: int = FIGURE_WINDOW[2],
    n_beta: int = FIGURE_WINDOW[3],
) -> SurfaceGrid:
    """Evaluate the J, K, I surfaces on a rectangular grid.

    The default window is the figure window [3, 5] x [-4, -0.5].  A range
    whose ends are not finite numbers, or an ``n_alpha`` or ``n_beta`` that
    is not an integer of at least 1, raises DomainError.
    """
    ends = [_check_real("a grid range's end", end) for end in (*alpha_range, *beta_range)]
    if not all(map(math.isfinite, ends)):
        raise DomainError("grid ranges must be finite")
    _check_count("n_alpha", n_alpha)
    _check_count("n_beta", n_beta)
    alphas = np.linspace(alpha_range[0], alpha_range[1], n_alpha)
    betas = np.linspace(beta_range[0], beta_range[1], n_beta)
    J = rate_J(params, alphas[:, None], betas[None, :])
    K = rate_K(params, alphas[:, None], betas[None, :])
    return SurfaceGrid(alphas=alphas, betas=betas, J=J, K=K, I=np.minimum(J, K))


@dataclass(frozen=True, eq=False)
class ProfileCurves:
    """Marginal rate curves on a shared 1-D grid."""

    v: np.ndarray
    Ja: np.ndarray
    Ka: np.ndarray
    Ia: np.ndarray
    Jb: np.ndarray
    Kb: np.ndarray
    Ib: np.ndarray

    def to_csv(self) -> str:
        """One row per grid point, one column per field."""
        names = [f.name for f in fields(self)]
        return csv_text(names, [getattr(self, n) for n in names])


def profile_curves(
    params: ProcessParams, grid: Sequence[float] | None = None
) -> ProfileCurves:
    """Evaluate the six marginal rate functions on a shared grid."""
    if grid is None:
        grid = np.linspace(-4.0, 8.0, 61)
    v = np.asarray(grid, dtype=float)
    cols = {name: rate_marginal(params, name, v) for name in ("Ja", "Ka", "Jb", "Kb")}
    return ProfileCurves(
        v=v,
        Ia=np.minimum(cols["Ja"], cols["Ka"]),
        Ib=np.minimum(cols["Jb"], cols["Kb"]),
        **cols,
    )


# ---------------------------------------------------------------------------
# Check suites: closed forms against independent numerics.
# ---------------------------------------------------------------------------

#: The 5^4 quadruplet grid of the Legendre suite's lambda_star comparison.
LEGENDRE_QUAD_GRID = {
    "x": (0.0, 0.3, 0.8, 1.5, 2.5),
    "t": (0.0, -0.2, -0.5, -1.0, -1.6),
    "y": (2.0, 3.0, 4.0, 5.0, 6.0),
    "z": (0.6, 0.8, 1.0, 1.3, 1.7),
}

#: The inf-sup suite's (alpha, beta) points, ten in each of D3, D2 and D1.
INFSUP_POINTS = (
    (2.5, -0.5), (2.5, -2.0), (3.0, -1.0), (3.0, -3.0), (3.5, -0.7),
    (4.0, -2.5), (4.5, -1.2), (5.0, -4.0), (6.0, -0.8), (2.2, -1.5),
    (0.5, 0.7), (0.5, -0.6), (1.0, 0.5), (1.0, -1.0), (1.5, 1.2),
    (1.5, -2.0), (0.3, 2.0), (1.8, -0.4), (0.8, -3.0), (1.2, 0.9),
    (0.0, 0.5), (-0.5, 0.8), (-1.0, 1.0), (-1.5, 2.0), (-2.0, 0.6),
    (-3.0, 1.5), (-0.3, 3.0), (-2.5, 2.5), (-4.0, 1.2), (-0.8, 0.4),
)


def _worst_gap(points: Sequence[dict], closed, numeric) -> tuple[dict, float]:
    """Compare numeric(*point) with closed(*point) over coordinate dicts.

    Returns the first point of largest |numeric - closed| with both values,
    and the largest signed excess numeric - closed.
    """
    worst = {"abs_diff": -1.0}
    max_excess = -math.inf
    for point in points:
        c = closed(*point.values())
        n = numeric(*point.values())
        max_excess = max(max_excess, n - c)
        if abs(n - c) > worst["abs_diff"]:
            worst = {"point": point, "closed_form": c, "numeric": n, "abs_diff": abs(n - c)}
    return worst, max_excess


def _check_clt(
    params: ProcessParams,
    *,
    T: float,
    n_steps: int,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
    estimator: str = "mle",
    tolerance: float = 0.15,
) -> dict:
    names = ["mle", "tilde", "check"] if estimator == "all" else [estimator]
    reports = clt_experiments(
        params, names, T, n_paths, seed, n_steps=n_steps, n_workers=n_workers,
        tolerance=tolerance,
    )
    dicts = [r.to_dict() for r in reports]
    if len(dicts) == 1:
        return dicts[0]
    # One envelope around the estimators' envelopes, under "reports".
    wrapper = report("clt", params, {"estimators": names}, dicts, all(r.passed for r in reports))
    wrapper["reports"] = wrapper.pop("metrics")
    return wrapper


def _check_legendre(params: ProcessParams, *, tolerance: float = 1e-6) -> dict:
    pair = [
        {"x": float(x), "y": float(y)}
        for x, y in product(np.linspace(1.5, 6.0, 20), np.linspace(0.8, 3.0, 20))
    ]
    g = LEGENDRE_QUAD_GRID
    quad = [dict(zip("xyzt", p)) for p in product(g["x"], g["y"], g["z"], g["t"])]
    worst_pair, _ = _worst_gap(
        pair,
        partial(rate_pair, params),
        lambda x, y: legendre_transform_numeric(params, 0.0, x, y, 0.0),
    )
    worst_quad, _ = _worst_gap(
        quad, partial(lambda_star, params), partial(legendre_transform_numeric, params)
    )
    settings = {"tolerance": tolerance, "pair_grid": "20x20", "quad_grid": "5^4"}
    metrics = {"worst_pair": worst_pair, "worst_quad": worst_quad}
    passed = worst_pair["abs_diff"] <= tolerance and worst_quad["abs_diff"] <= tolerance
    return report("legendre", params, settings, metrics, passed)


def _check_infsup(params: ProcessParams, *, tolerance: float = 1e-4) -> dict:
    worst, max_excess = _worst_gap(
        [{"alpha": al, "beta": be} for al, be in INFSUP_POINTS],
        partial(rate_I_mle, params),
        partial(rate_I_infsup, params),
    )
    settings = {"tolerance": tolerance, "n_points": len(INFSUP_POINTS)}
    passed = worst["abs_diff"] <= tolerance and max_excess <= tolerance
    return report("infsup", params, settings, {"worst": worst, "max_excess": max_excess}, passed)


def _check_slope(
    params: ProcessParams,
    *,
    n_paths: int,
    seed: int,
    n_workers: int = 1,
    functional: str = "S",
    c: float | None = None,
    T_grid: Sequence[float] = (5.0, 10.0, 20.0),
    tolerance: float = 0.30,
) -> dict:
    if c is None and functional in SLOPE_FUNCTIONALS:
        c = _SLOPE_DEFAULT_SCALE[functional] * SLOPE_FUNCTIONALS[functional][0](params)
    return slope_experiment(
        params, functional, c, T_grid, n_paths, seed, n_workers=n_workers,
        tolerance=tolerance,
    ).to_dict()


def _check_continuity(params: ProcessParams, *, tolerance: float = 1e-6) -> dict:
    rc = region_constants(params)
    seam_tol = 1e-9
    al, be = np.array([2.5, 3.0, 4.0, 5.0]), np.array([-0.5, -1.0, -2.0])
    b3 = params.b / 3.0
    seams = {
        "J_at_beta_b_over_3": np.abs(
            _rate_J_branch_A(params, al, b3) - _rate_J_branch_B(params, al, b3)
        ).max(),
        "K_at_alpha_a": np.abs(
            _rate_K_branch_1(params, rc.alpha_a, be) - _rate_K_branch_2(params, rc.alpha_a, be)
        ).max(),
        "Ja_at_ell_a": abs(_Ja_low(params, rc.ell_a) - _Ja_high(params, rc.ell_a)),
        "Ka_at_alpha_a": abs(
            rate_K(params, rc.alpha_a, rc.beta_b(rc.alpha_a)) - _Ja_high(params, rc.alpha_a)
        ),
    }
    # Closed-form marginal against the numeric infimum along its axis.
    marginals = {
        name: _worst_gap(
            [{"v": float(v)} for v in np.linspace(lo, hi, 8)],
            partial(rate_marginal, params, name),
            partial(marginal_inf_numeric, params, name[0], name[1]),
        )[0]["abs_diff"]
        for name, lo, hi in (
            ("Ja", 0.5, 5.5), ("Jb", -3.0, 0.8), ("Ka", -2.0, 5.0), ("Kb", -3.0, 1.0)
        )
    }
    surf = surface_grid(params)
    shared = surf.max_shared_diff(params)
    both_finite = np.isfinite(surf.J) & np.isfinite(surf.K)
    overall = (
        float(np.max(np.abs(surf.J[both_finite] - surf.K[both_finite])))
        if both_finite.any()
        else 0.0
    )
    metrics = {
        "seams": seams,
        "marginals": marginals,
        "max_shared_branch_diff": shared,
        "max_overall_JK_diff": overall,
    }
    passed = (
        all(v <= seam_tol for v in seams.values())
        and all(v <= tolerance for v in marginals.values())
        and shared <= 1e-9
    )
    settings = {"seam_tolerance": seam_tol, "marginal_tolerance": tolerance}
    return report("continuity", params, settings, metrics, passed)


#: The check suites by name.  Each takes (params, **settings), where the
#: settings are its keyword-only parameters, and returns a JSON-ready report
#: whose "pass" entry is the verdict.
CHECK_SUITES: dict[str, Callable[..., dict]] = {
    "clt": _check_clt,
    "legendre": _check_legendre,
    "infsup": _check_infsup,
    "slope": _check_slope,
    "continuity": _check_continuity,
}
