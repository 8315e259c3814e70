"""Acceptance gate: eleven criteria, one recorded pass/fail line each.

Each test performs the full check at its stated tolerance and budget,
records a single summary line (echoed in the terminal summary by
conftest), and then asserts.

Two criteria are limits in the horizon T, and each is tested at horizons
where the limit is resolved rather than at one finite T:

* C8 (CLT covariance): the empirical covariance of sqrt(T)(estimate - theta)
  carries an O(1/T) excess over 4 C^-1.  The test runs T = 100 and T = 200
  on the same seed and asserts on the Richardson extrapolation
  2 cov(200) - cov(100), which removes the 1/T term.
* C9 (LDP slope): -(1/T) log P differs from the rate by
  (1/2 log T - log K)/T, which dominates at any T plain Monte Carlo can reach.
  The test estimates each tail at T = 200 and T = 400 by sampling under
  tilted drift parameters and reweighting each path by its exact Girsanov
  density, and takes the two-horizon slope with the Bahadur-Rao sqrt(T)
  prefactor removed.  A plain Monte Carlo ensemble at T = 20 anchors the
  reweighting: the tilted estimate at T = 20 must agree with its frequency.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import record_criterion
from cir_ldp import (
    CgfPoint,
    PathFunctionals,
    ProcessParams,
    bessel_log_i,
    cgf_finite_T_mc,
    cgf_gradient,
    cgf_limit,
    clt_experiments,
    estimate_combined,
    estimate_mle,
    lambda_star,
    legendre_transform_numeric,
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
    region_constants,
    sample_transition,
    simulate_ensemble,
    transition_density,
    transition_kernel,
)
from cir_ldp.harness import INFSUP_POINTS as _INFSUP_POINTS, LEGENDRE_QUAD_GRID as _LEGENDRE_QUAD_GRID
from cir_ldp.rates import (
    _Ja_high,
    _Ja_low,
    _rate_J_branch_A,
    _rate_J_branch_B,
    _rate_K_branch_1,
    _rate_K_branch_2,
)

P44 = ProcessParams(4.0, -1.0)

REGIMES = [
    ProcessParams(a, b)
    for a in (2.5, 3.0, 4.0, 6.0)
    for b in (-0.5, -1.0, -2.0)
]


def test_c01_zero_at_truth():
    t0 = time.perf_counter()
    worst = 0.0
    for p in REGIMES:
        a, b = p.a, p.b
        vals = [
            rate_J(p, a, b),
            rate_K(p, a, b),
            rate_I_mle(p, a, b),
            rate_S(p, -a / b),
            rate_Sigma(p, -b / (a - 2.0)),
            rate_V(p, 2.0 / (a - 2.0)),
            lambda_star(p, 0.0, -a / b, -b / (a - 2.0), 0.0),
        ]
        worst = max(worst, max(abs(v) for v in vals))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    line = record_criterion(
        "C1", ok, f"zero-at-truth worst={worst:.2e} tol=1e-12 ({elapsed:.2f}s < 1s)"
    )
    assert ok, line


def test_c02_named_values():
    checks = {
        "J(2,0)": (rate_J(P44, 2.0, 0.0), 1.0),
        "K(0,0)": (rate_K(P44, 0.0, 0.0), math.sqrt(2.0)),
        "I(2,-1)": (rate_I_mle(P44, 2.0, -1.0), 2.25),
        "Jb(b)": (rate_marginal(P44, "Jb", P44.b), 0.0),
        "Ja(2)": (rate_marginal(P44, "Ja", 2.0), 1.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    ok = worst <= 1e-12
    line = record_criterion("C2", ok, f"named values worst={worst:.2e} tol=1e-12")
    assert ok, line


def test_c03_duality():
    t0 = time.perf_counter()
    worst_pair = 0.0
    for x in np.linspace(1.5, 6.0, 20):
        for y in np.linspace(0.8, 3.0, 20):
            closed = rate_pair(P44, float(x), float(y))
            numeric = legendre_transform_numeric(P44, 0.0, float(x), float(y), 0.0)
            worst_pair = max(worst_pair, abs(numeric - closed))
    worst_quad = 0.0
    g = _LEGENDRE_QUAD_GRID
    for x in g["x"]:
        for y in g["y"]:
            for z in g["z"]:
                for t in g["t"]:
                    closed = lambda_star(P44, x, y, z, t)
                    numeric = legendre_transform_numeric(P44, x, y, z, t)
                    worst_quad = max(worst_quad, abs(numeric - closed))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-6 and worst_quad <= 1e-6 and elapsed < 120.0
    line = record_criterion(
        "C3",
        ok,
        f"duality worst_pair={worst_pair:.2e} worst_quad={worst_quad:.2e} "
        f"tol=1e-6 ({elapsed:.0f}s < 120s)",
    )
    assert ok, line


def test_c04_infsup_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    max_excess = -math.inf
    for al, be in _INFSUP_POINTS:
        target = rate_I_mle(P44, al, be)
        got = rate_I_infsup(P44, al, be)
        worst = max(worst, abs(got - target))
        max_excess = max(max_excess, got - target)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and max_excess <= 1e-4 and elapsed < 300.0
    line = record_criterion(
        "C4",
        ok,
        f"infsup n={len(_INFSUP_POINTS)} worst={worst:.2e} "
        f"max_excess={max_excess:.2e} tol=1e-4 ({elapsed:.0f}s < 300s)",
    )
    assert ok, line


def test_c05_contraction_and_continuity():
    worst_marg = 0.0
    for v in np.linspace(-1.0, 7.0, 40):
        worst_marg = max(
            worst_marg,
            abs(rate_marginal(P44, "Ja", float(v)) - marginal_inf_numeric(P44, "J", "a", float(v))),
            abs(rate_marginal(P44, "Ka", float(v)) - marginal_inf_numeric(P44, "K", "a", float(v))),
        )
    for v in np.concatenate([np.linspace(-3.0, -0.08, 20), np.linspace(0.08, 1.5, 20)]):
        worst_marg = max(
            worst_marg,
            abs(rate_marginal(P44, "Jb", float(v)) - marginal_inf_numeric(P44, "J", "b", float(v))),
        )
    rc = region_constants(P44)
    worst_seam = 0.0
    for al in (2.5, 3.0, 4.0, 5.0):
        worst_seam = max(
            worst_seam,
            abs(_rate_J_branch_A(P44, al, P44.b / 3.0) - _rate_J_branch_B(P44, al, P44.b / 3.0)),
        )
    for be in (-0.5, -1.0, -2.0):
        worst_seam = max(
            worst_seam,
            abs(_rate_K_branch_1(P44, rc.alpha_a, be) - _rate_K_branch_2(P44, rc.alpha_a, be)),
        )
    worst_seam = max(worst_seam, abs(_Ja_low(P44, rc.ell_a) - _Ja_high(P44, rc.ell_a)))
    ok = worst_marg <= 1e-6 and worst_seam <= 1e-9
    line = record_criterion(
        "C5",
        ok,
        f"contraction worst_marginal={worst_marg:.2e} (tol 1e-6) "
        f"worst_seam={worst_seam:.2e} (tol 1e-9)",
    )
    assert ok, line


def test_c06_gradient_and_steepness():
    rng = np.random.default_rng(2024)
    b, a = P44.b, P44.a
    h = 1e-6
    worst_rel = 0.0
    checked = 0
    while checked < 50:
        theta = np.array(
            [
                rng.uniform(-2.0, 2.0),
                rng.uniform(b * b / 8.0 - 3.0, b * b / 8.0 - 0.1),
                rng.uniform((a - 2.0) ** 2 / 8.0 - 3.0, (a - 2.0) ** 2 / 8.0 - 0.1),
                rng.uniform(-2.0, 2.0),
            ]
        )
        try:
            g = cgf_gradient(P44, CgfPoint(*theta), tol=1e-4)
        except Exception:
            continue
        for i in range(4):
            up = theta.copy()
            dn = theta.copy()
            up[i] += h
            dn[i] -= h
            fd = (cgf_limit(P44, CgfPoint(*up)) - cgf_limit(P44, CgfPoint(*dn))) / (2.0 * h)
            worst_rel = max(worst_rel, abs(g[i] - fd) / max(1.0, abs(fd)))
        checked += 1
    steep = float(
        np.linalg.norm(cgf_gradient(P44, CgfPoint(0.0, b * b / 8.0 - 1e-8, 0.0, 0.0), tol=1e-10))
    )
    ok = worst_rel <= 1e-6 and steep > 1e3
    line = record_criterion(
        "C6",
        ok,
        f"gradient n=50 worst_rel={worst_rel:.2e} (tol 1e-6) "
        f"steepness={steep:.1f} (> 1e3)",
    )
    assert ok, line


def test_c07_sampler_and_bessel():
    t, x = 0.7, 1.3
    mass, _ = integrate.quad(
        lambda y: transition_density(P44, t, x, y), 0.0, np.inf, limit=200
    )
    norm_err = abs(mass - 1.0)

    rng = np.random.default_rng(314)
    n = 100_000
    draws = np.array([sample_transition(P44, t, x, rng) for _ in range(n)])
    hi = float(draws.max()) * 1.3
    ygrid = np.linspace(1e-9, hi, 40_001)
    dens = np.array([transition_density(P44, t, x, float(y)) for y in ygrid])
    panels = 0.5 * (dens[1:] + dens[:-1]) * np.diff(ygrid)
    cdfgrid = np.concatenate([[0.0], np.cumsum(panels)])
    cdfgrid = np.clip(cdfgrid / cdfgrid[-1], 0.0, 1.0)
    ks = stats.kstest(draws, lambda q: np.interp(q, ygrid, cdfgrid))

    srng = np.random.default_rng(217)
    sandwich_ok = True
    for _ in range(10_000):
        nu = float(srng.uniform(0.05, 40.0))
        z = float(srng.uniform(1e-3, 500.0))
        ratio = bessel_log_i(nu, z) - nu * math.log(z / 2.0) + math.lgamma(nu + 1.0)
        if not (0.0 < ratio < z):
            sandwich_ok = False
            break

    ok = norm_err <= 1e-6 and ks.pvalue > 0.01 and sandwich_ok
    line = record_criterion(
        "C7",
        ok,
        f"sampler norm_err={norm_err:.2e} (tol 1e-6) ks_p={ks.pvalue:.3f} (> 0.01) "
        f"sandwich_10k={'ok' if sandwich_ok else 'violated'}",
    )
    assert ok, line


def test_c08_clt_covariance():
    t0 = time.perf_counter()
    estimators = ["mle", "tilde", "check"]
    seed = 7
    # Both runs use 200 steps per unit and one seed, so the T = 200 paths
    # continue the T = 100 ones and the two covariances share their noise.
    runs = [
        clt_experiments(P44, estimators, T=T, n_paths=5000, rng=seed)
        for T in (100.0, 200.0)
    ]
    devs = {}
    for r100, r200 in zip(*runs):
        extrapolated = 2.0 * r200.covariance - r100.covariance
        rel = np.abs(extrapolated - r100.target) / np.abs(r100.target)
        devs[r100.estimator] = (
            float(np.max(r100.relative_deviations)),
            float(np.max(r200.relative_deviations)),
            float(np.max(rel)),
        )
    elapsed = time.perf_counter() - t0
    ok = all(d[2] <= 0.15 for d in devs.values()) and elapsed < 180.0
    line = record_criterion(
        "C8",
        ok,
        f"clt n=5000 seed={seed} max_rel_dev T=100/T=200/extrapolated "
        + " ".join(f"{k}={d[0]:.3f}/{d[1]:.3f}/{d[2]:.3f}" for k, d in devs.items())
        + f" tol=0.15 on 2*cov(200)-cov(100) ({elapsed:.0f}s < 180s)",
    )
    assert ok, line


def _girsanov_log_ratio(
    p: ProcessParams, q: ProcessParams, ens: PathFunctionals
) -> np.ndarray:
    """log dQ/dP on [0, T] for each path of ``ens``, from the same x0.

    For dX = (a + b X) dt + 2 sqrt(X) dB the density is
    int (mu_q - mu_p) / (4X) dX - 1/2 int (mu_q^2 - mu_p^2) / (4X) dt, and
    int dX/X = log(X_T/x0) + 2 T Sigma by Ito's formula, so only X_T and the
    time averages S, Sigma of the path enter.
    """
    T = ens.T
    TS, TSigma = T * ens.S, T * ens.Sigma
    da, db = q.a - p.a, q.b - p.b
    return 0.25 * (
        da * (np.log(ens.x_T / p.x0) + 2.0 * TSigma) + db * (ens.x_T - p.x0)
    ) - 0.125 * (
        (q.a**2 - p.a**2) * TSigma
        + 2.0 * (q.a * q.b - p.a * p.b) * T
        + (q.b**2 - p.b**2) * TS
    )


def _tilted_log_tail(
    tilt: ProcessParams, functional: str, c: float, T: float, seed: int
) -> tuple[float, float]:
    """log P(functional_T >= c) under P44, sampled under ``tilt``.

    Returns the estimate of log E_tilt[1_hit dP44/dtilt] on 4 096 paths at
    50 steps per unit, and the relative standard error of E_tilt[...].
    """
    n = 4096
    ens = simulate_ensemble(tilt, T, round(50 * T), n, seed)
    hit = getattr(ens, functional) >= c
    log_w = np.where(hit, -_girsanov_log_ratio(P44, tilt, ens), -np.inf)
    top = float(np.max(log_w))
    w = np.exp(log_w - top)
    mean = float(np.mean(w))
    return top + math.log(mean), float(np.std(w, ddof=1)) / (math.sqrt(n) * mean)


def test_c09_ldp_slope():
    t0 = time.perf_counter()
    seed, n_anchor = 42, 100_000
    anchor = simulate_ensemble(P44, 20.0, 1000, n_anchor, seed)
    seeds = iter(np.random.SeedSequence(seed).generate_state(6, np.uint64).tolist())
    a, b = P44.a, P44.b
    c, y = 5.0, 1.0
    # Each tilt moves the ergodic mean of its functional onto the threshold:
    # S -> -a/b' = c, Sigma -> -b/(a' - 2) = y.
    cases = [
        ("S", c, ProcessParams(a, -a / c), rate_S(P44, c)),
        ("Sigma", y, ProcessParams(2.0 - b / y, b), rate_Sigma(P44, y)),
    ]
    ok = True
    parts = []
    for name, threshold, tilt, rate in cases:
        freq = float(np.mean(getattr(anchor, name) >= threshold))
        freq_se = math.sqrt(freq * (1.0 - freq) / n_anchor)
        logp, rse = {}, {}
        for T in (20.0, 200.0, 400.0):
            logp[T], rse[T] = _tilted_log_tail(tilt, name, threshold, T, next(seeds))
        p20 = math.exp(logp[20.0])
        anchor_z = abs(p20 - freq) / math.hypot(p20 * rse[20.0], freq_se)
        # Bahadur-Rao: P ~ K T^(-1/2) exp(-T I), so the sqrt(T) prefactor
        # contributes -(1/2) log 2 to log P(400) - log P(200).
        slope = -(logp[400.0] - logp[200.0]) / 200.0 - 0.5 * math.log(2.0) / 200.0
        worst_rse = max(rse.values())
        ok = ok and anchor_z <= 4.0 and worst_rse <= 0.1 and abs(slope - rate) <= 0.10 * rate
        parts.append(
            f"{name}:{slope:.4f} vs {rate:.4f} (T=20 tilted {p20:.4f} "
            f"mc {freq:.4f} z={anchor_z:.1f}, max_rse={worst_rse:.3f})"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    line = record_criterion(
        "C9",
        ok,
        f"slope T=200,400 tilted n=4096 anchor T=20 n=1e5 seed={seed} "
        + " ".join(parts)
        + f" tol=10% z<=4 rse<=0.1 ({elapsed:.0f}s < 300s)",
    )
    assert ok, line


def test_c10_finite_t_cgf():
    point = CgfPoint(0.1, -0.1, -0.1, -0.1)
    est, se = cgf_finite_T_mc(P44, point, T=50.0, n_paths=10_000, rng=11)
    limit = cgf_limit(P44, point)
    diff = abs(est - limit)
    band = 3.0 * se + 0.05
    ok = diff <= band
    line = record_criterion(
        "C10",
        ok,
        f"finite-T cgf T=50 n=1e4 est={est:.5f} limit={limit:.5f} "
        f"|diff|={diff:.4f} <= 3se+0.05={band:.4f}",
    )
    assert ok, line


def test_c11_exponential_equivalence():
    medians = []
    for T in (10.0, 50.0, 200.0):
        ens = simulate_ensemble(P44, T, int(200 * T), 100, 5)
        dists = []
        for i in range(100):
            pf = PathFunctionals(
                ens.T, P44.x0, float(ens.x_T[i]), float(ens.S[i]), float(ens.Sigma[i])
            )
            mle = estimate_mle(pf)
            bar = estimate_combined(pf)
            dists.append(math.hypot(bar.alpha - mle.alpha, bar.beta - mle.beta))
        medians.append(float(np.median(dists)))
    ok = medians[0] > medians[1] > medians[2]
    line = record_criterion(
        "C11",
        ok,
        "exp-equivalence med|combined-mle| T=10,50,200: "
        + ", ".join(f"{m:.4f}" for m in medians)
        + (" strictly decreasing" if ok else " NOT strictly decreasing"),
    )
    assert ok, line
