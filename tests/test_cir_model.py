"""Model layer: parameters, transition law, Bessel function, exact sampling."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import cir_ldp
from cir_ldp import (
    BLOCK_SIZE,
    CgfPoint,
    CirLdpError,
    ProcessParams,
    RegimeError,
    DomainError,
    Trajectory,
    bessel_log_i,
    cgf_limit,
    conditional_moments,
    path_rng,
    read_trajectory_csv,
    sample_transition,
    simulate_ensemble,
    simulate_path,
    stationary_law,
    transition_density,
    transition_kernel,
    transition_log_density,
    write_trajectory_csv,
)
from cir_ldp import cir_model
from cir_ldp.functionals import PathFunctionals, compute_functionals


class TestParams:
    def test_valid_regime(self):
        p = ProcessParams(4.0, -1.0)
        assert (p.a, p.b, p.x0) == (4.0, -1.0, 1.0)
        q = ProcessParams(2.001, -0.01, 3.5)
        assert q.x0 == 3.5

    @pytest.mark.parametrize(
        "a,b,x0",
        [
            (2.0, -1.0, 1.0),
            (1.5, -1.0, 1.0),
            (4.0, 0.0, 1.0),
            (4.0, 0.5, 1.0),
            (4.0, -1.0, 0.0),
            (4.0, -1.0, -2.0),
            (math.nan, -1.0, 1.0),
            (4.0, -math.inf, 1.0),
            # A bool is not a real number, as for a time or a state.
            (4.0, -1.0, True),
            (np.True_, -1.0, 1.0),
            # An int past float range reads as +-inf, as 1e400 does.
            pytest.param(10**400, -1.0, 1.0, id="huge a"),
            pytest.param(4.0, -(10**400), 1.0, id="huge negative b"),
            pytest.param(4.0, -1.0, 10**400, id="huge x0"),
        ],
    )
    def test_regime_rejections(self, a, b, x0):
        with pytest.raises(RegimeError):
            ProcessParams(a, b, x0)

    def test_params_are_frozen(self, params44):
        with pytest.raises(Exception):
            params44.a = 5.0

    def test_numpy_reals_load_as_floats(self):
        p = ProcessParams(np.float32(4), np.int64(-1), np.float64(2.5))
        assert (p.a, p.b, p.x0) == (4.0, -1.0, 2.5)
        assert all(type(v) is float for v in (p.a, p.b, p.x0))


class TestStationaryLaw:
    def test_moments_at_4_minus1(self, params44):
        law = stationary_law(params44)
        assert law.shape == 2.0
        assert law.scale == 2.0
        assert law.mean == 4.0
        assert law.mean_inverse == 0.5
        assert law.variance == 8.0

    def test_consistency_with_gamma(self, regimes):
        for p in regimes:
            law = stationary_law(p)
            assert law.mean == pytest.approx(law.shape * law.scale, rel=1e-14)
            assert law.variance == pytest.approx(law.shape * law.scale**2, rel=1e-14)
            # E[1/X] for Gamma(k, s) is 1/(s (k-1)), finite because a > 2.
            assert law.mean_inverse == pytest.approx(
                1.0 / (law.scale * (law.shape - 1.0)), rel=1e-14
            )


class TestConditionalMoments:
    def test_matches_noncentral_chi_squared_form(self, params44):
        for t, x in [(0.3, 0.7), (1.0, 1.0), (2.5, 4.2)]:
            mean, var = conditional_moments(params44, t, x)
            k = transition_kernel(params44, t, x)
            assert mean == pytest.approx(k.scale * (params44.a + k.noncentrality), rel=1e-12)
            assert var == pytest.approx(
                k.scale**2 * (2.0 * params44.a + 4.0 * k.noncentrality), rel=1e-12
            )

    def test_short_time_expansion(self, params44):
        t, x = 1e-6, 1.7
        mean, var = conditional_moments(params44, t, x)
        drift = params44.a + params44.b * x
        assert mean == pytest.approx(x + drift * t, abs=1e-10)
        assert var == pytest.approx(4.0 * x * t, rel=1e-5)

    def test_long_time_limit_is_stationary(self, regimes):
        for p in regimes:
            law = stationary_law(p)
            mean, var = conditional_moments(p, 200.0 / -p.b, 3.0)
            assert mean == pytest.approx(law.mean, rel=1e-10)
            assert var == pytest.approx(law.variance, rel=1e-10)

    def test_domain_errors(self, params44):
        with pytest.raises(DomainError):
            conditional_moments(params44, 0.0, 1.0)
        with pytest.raises(DomainError):
            conditional_moments(params44, 1.0, -1.0)


class TestBessel:
    def test_against_scaled_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            nu = float(rng.uniform(0.0, 50.0))
            z = float(10.0 ** rng.uniform(math.log10(0.05), 6.0))
            scaled = special.ive(nu, z)
            if scaled <= 0.0:
                continue
            ref = math.log(scaled) + z
            assert bessel_log_i(nu, z) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    #: (nu, z, log I_nu(z)) from mpmath at 50 digits, on both sides of the
    #: switch z = 100 + nu^2 and far out on the large-argument expansion.
    _MPMATH = [
        (0.0, 0.5, 0.06154971918548131),
        (2.5, 30.0, 27.27879912218775),
        (1.0, 101.5, 98.26731912744744),
        (12.5, 150.0, 146.05430472996338),
        (50.0, 700.0, 694.0194695529353),
        (50.0, 2600.0, 2594.6686292980985),
        (1.0, 1e6, 999992.1733058128),
    ]

    @pytest.mark.parametrize("nu, z, ref", _MPMATH)
    def test_against_mpmath(self, nu, z, ref):
        assert bessel_log_i(nu, z) == pytest.approx(ref, rel=1e-13)

    def test_huge_argument_is_the_leading_term(self):
        z = 1e300
        assert bessel_log_i(1.0, z) == z - 0.5 * math.log(2.0 * math.pi * z)

    def test_series_regime_small_z(self):
        # Far below the series/expansion switch the reference is the exact
        # two-term series.
        for nu in (0.0, 0.5, 1.0, 7.5):
            z = 1e-4
            lead = nu * math.log(z / 2.0) - math.lgamma(nu + 1.0)
            corr = math.log1p(z * z / (4.0 * (nu + 1.0)))
            assert bessel_log_i(nu, z) == pytest.approx(lead + corr, abs=1e-12)

    def test_continuity_at_series_switch(self):
        # The series serves z <= 100 + nu^2, the large-argument expansion above.
        for nu in (0.0, 1.0, 12.5):
            switch = 100.0 + nu * nu
            below = bessel_log_i(nu, switch - 1e-9)
            above = bessel_log_i(nu, switch + 1e-9)
            assert below == pytest.approx(above, rel=1e-9)

    def test_underflowing_argument_gives_leading_term(self):
        # z^2/4 underflows to 0 here; the series reduces to its first term.
        for nu in (0.0, 1.0, 7.5):
            for z in (1e-200, 1e-300, 5e-324):
                lead = nu * (math.log(z) - math.log(2.0)) - math.lgamma(nu + 1.0)
                assert bessel_log_i(nu, z) == lead

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_log_i(1.0, 0.0)
        with pytest.raises(DomainError):
            bessel_log_i(-0.5, 1.0)


class TestTransitionDensity:
    def test_normalization_and_mean(self, params44):
        t, x = 0.7, 1.3
        mass, _ = integrate.quad(
            lambda y: transition_density(params44, t, x, y), 0.0, np.inf, limit=200
        )
        assert mass == pytest.approx(1.0, abs=1e-8)
        mean_num, _ = integrate.quad(
            lambda y: y * transition_density(params44, t, x, y), 0.0, np.inf, limit=200
        )
        mean, _ = conditional_moments(params44, t, x)
        assert mean_num == pytest.approx(mean, rel=1e-8)

    def test_matches_noncentral_chi_squared_density(self, params44):
        for t, x in [(0.4, 0.9), (1.5, 2.7)]:
            k = transition_kernel(params44, t, x)
            for y in (0.2, 1.0, 3.1, 7.5):
                ref = stats.ncx2.pdf(y / k.scale, params44.a, k.noncentrality) / k.scale
                assert transition_density(params44, t, x, y) == pytest.approx(ref, rel=1e-9)

    def test_log_density_survives_long_horizons(self, params44):
        # sinh(d t / 2) overflows around t ~ 1400 in double precision; the
        # log-space form must stay finite and match the stationary limit.
        val = transition_log_density(params44, 5000.0, 1.0, 3.0)
        law = stationary_law(params44)
        ref = stats.gamma.logpdf(3.0, law.shape, scale=law.scale)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_small_bessel_argument_at_long_horizon(self, params44):
        # At t = 800 the Bessel argument is ~1e-175, whose square underflows.
        val = transition_log_density(params44, 800.0, 1.0, 1e-3)
        law = stationary_law(params44)
        ref = stats.gamma.logpdf(1e-3, law.shape, scale=law.scale)
        assert val == pytest.approx(ref, rel=1e-12)

    # log p(t, 1, 1) of the scaled noncentral chi-squared law, in 60-digit
    # mpmath.  At short horizons the sinh term's log must not amplify the
    # rounding of exp(-d t) by 1/(d t).
    @pytest.mark.parametrize(
        "a, b, t, ref",
        [
            (4.0, -1.0, 1e-6, 5.295670065217310689971917),
            (4.0, -1.0, 1e-4, 2.993134470139962853570476),
            (4.0, -1.0, 1e-2, 0.6954783665088006468696267),
            (2.5, -0.5, 1e-6, 5.295669940217560690198486),
            (2.5, -0.5, 1e-4, 2.993121972640189446283674),
        ],
    )
    def test_short_horizons_match_mpmath(self, a, b, t, ref):
        val = transition_log_density(ProcessParams(a, b), t, 1.0, 1.0)
        assert abs(val - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_domain_errors(self, params44):
        for bad in [(0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, -0.5)]:
            with pytest.raises(DomainError):
                transition_density(params44, *bad)


class TestSampling:
    def test_scalar_draw_moments(self, params44):
        rng = np.random.default_rng(7)
        t, x = 0.7, 1.3
        draws = np.array([sample_transition(params44, t, x, rng) for _ in range(20000)])
        mean, var = conditional_moments(params44, t, x)
        assert draws.min() > 0.0
        assert abs(draws.mean() - mean) < 5.0 * math.sqrt(var / draws.size)
        assert abs(draws.var(ddof=1) - var) < 0.05 * var

    def test_ks_against_noncentral_chi_squared(self, params44):
        rng = np.random.default_rng(11)
        t, x = 0.9, 2.0
        k = transition_kernel(params44, t, x)
        draws = np.array([sample_transition(params44, t, x, rng) for _ in range(4000)])
        res = stats.kstest(draws / k.scale, lambda q: stats.ncx2.cdf(q, params44.a, k.noncentrality))
        assert res.pvalue > 0.01

    def test_ks_at_non_integer_dimension(self):
        # a = 2.3 leaves 1.3 degrees of freedom to the central chi-squared part.
        p = ProcessParams(2.3, -0.8)
        rng = np.random.default_rng(13)
        t, x = 0.6, 1.1
        k = transition_kernel(p, t, x)
        draws = np.array([sample_transition(p, t, x, rng) for _ in range(4000)])
        res = stats.kstest(draws / k.scale, stats.ncx2(p.a, k.noncentrality).cdf)
        assert res.pvalue > 0.01

    def test_chained_steps_preserve_terminal_law(self, params44):
        # The scheme is exact, so the law of X_T cannot depend on the grid.
        T, n = 2.0, 3000
        coarse = np.array([
            simulate_path(params44, T, 1, path_rng(3, i)).values[-1] for i in range(n)
        ])
        fine = np.array([
            simulate_path(params44, T, 64, path_rng(4, i)).values[-1] for i in range(n)
        ])
        res = stats.ks_2samp(coarse, fine)
        assert res.pvalue > 0.01


class TestSharedStep:
    def test_scalar_and_array_forms_are_bit_identical(self, params44):
        c, rate, shape = cir_model._step_constants(params44, 0.05)
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.gamma(2.0, 2.0, 2000), 10.0 ** rng.uniform(-12.0, 12.0, 2000)])
        g = rng.standard_gamma(shape, x.size)
        z = rng.standard_normal(x.size)
        array_form = cir_model._step(x, g, z, c, rate, np.sqrt)
        scalar_form = [
            cir_model._step(xi, gi, zi, c, rate)
            for xi, gi, zi in zip(x.tolist(), g.tolist(), z.tolist())
        ]
        np.testing.assert_array_equal(array_form, np.array(scalar_form))

    def test_callers_agree_on_one_step(self, params44):
        # One step from x0 draws one G, then one Z, in every caller; from the
        # ensemble's first substream all three land on the same bits.
        T, seed = 0.7, 19
        ens = simulate_ensemble(params44, T, 1, 1, seed)
        path = simulate_path(params44, T, 1, cir_model._substream(seed, 0, 0))
        rng = cir_model._substream(seed, 0, 0)
        draw = sample_transition(params44, T, params44.x0, rng)
        assert ens.x_T[0] == path.values[-1] == draw


class TestSimulatePath:
    def test_shape_grid_and_determinism(self, params44):
        t1 = simulate_path(params44, 3.0, 120, path_rng(5, 0))
        t2 = simulate_path(params44, 3.0, 120, path_rng(5, 0))
        assert len(t1) == 121
        np.testing.assert_array_equal(t1.times, np.linspace(0.0, 3.0, 121))
        np.testing.assert_array_equal(t1.values, t2.values)
        assert t1.values[0] == params44.x0
        assert np.all(t1.values > 0.0)

    def test_distinct_substreams_differ(self, params44):
        a = simulate_path(params44, 1.0, 50, path_rng(5, 0)).values
        b = simulate_path(params44, 1.0, 50, path_rng(5, 1)).values
        assert not np.array_equal(a[1:], b[1:])

    def test_domain_errors(self, params44):
        with pytest.raises(DomainError):
            simulate_path(params44, 0.0, 10, path_rng(0, 0))
        with pytest.raises(DomainError):
            simulate_path(params44, 1.0, 0, path_rng(0, 0))


# A record's ten observables: the five it is built from and the five it forms.
_OBSERVABLES = (
    "T", "x0", "x_T", "S", "Sigma", "xT_over_T", "sqrt_xT_over_T", "L", "curlyL", "V",
)


def _assert_is_its_observables(ens, x0: float) -> None:
    # Every observable of an ensemble has the bits that PathFunctionals
    # forms from its horizon, x0, terminal states and averages.
    assert ens.x0 == x0
    built = PathFunctionals(ens.T, x0, ens.x_T, ens.S, ens.Sigma)
    for name in _OBSERVABLES:
        np.testing.assert_array_equal(getattr(ens, name), getattr(built, name))


class TestEnsemble:
    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_ensemble_is_its_observables(self, params44, n_workers):
        # 12 300 paths: three full blocks and one of 12.
        n = 3 * BLOCK_SIZE + 12
        ens = simulate_ensemble(params44, 1.0, 20, n, 7, n_workers=n_workers)
        assert ens.x_T.shape == (n,) and ens.T == 1.0
        _assert_is_its_observables(ens, params44.x0)

    def test_ensemble_is_a_frozen_path_functionals(self, params44):
        ens = simulate_ensemble(params44, 1.0, 20, 5, 3)
        assert isinstance(ens, PathFunctionals)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ens.S = ens.Sigma

    def test_deterministic_and_worker_invariant(self, params44):
        n = BLOCK_SIZE + 37
        e1 = simulate_ensemble(params44, 1.0, 20, n, 123, n_workers=1)
        e2 = simulate_ensemble(params44, 1.0, 20, n, 123, n_workers=3)
        np.testing.assert_array_equal(e1.x_T, e2.x_T)
        np.testing.assert_array_equal(e1.S, e2.S)
        np.testing.assert_array_equal(e1.Sigma, e2.Sigma)
        assert e1.x_T.shape == (n,)

    def test_block_grouping_does_not_change_the_bits(self, params44):
        # Four blocks, the last of 5 paths: one worker advances all four in
        # lockstep, two take two each, four take one each.
        n = 3 * BLOCK_SIZE + 5
        runs = [simulate_ensemble(params44, 1.0, 20, n, 2024, n_workers=w) for w in (1, 2, 4)]
        for other in runs[1:]:
            for field in ("x_T", "S", "Sigma"):
                np.testing.assert_array_equal(getattr(runs[0], field), getattr(other, field))
        assert runs[0].x_T.shape == (n,)

    def test_lockstep_is_capped_and_does_not_change_the_bits(self, params44, monkeypatch):
        # One worker splits 2 cap + 1 blocks into three runs of at most cap
        # blocks; with a cap of one it steps every block alone.
        cap = cir_model._LOCKSTEP_BLOCKS
        n = (2 * cap + 1) * BLOCK_SIZE - 3
        runs = []
        simulate_blocks = cir_model._simulate_blocks

        def recorded(params, T, n_steps, seed, start, stop):
            runs.append((start, stop))
            return simulate_blocks(params, T, n_steps, seed, start, stop)

        monkeypatch.setattr(cir_model, "_simulate_blocks", recorded)
        capped = simulate_ensemble(params44, 1.0, 5, n, 77, n_workers=1)
        assert len(runs) == 3 and runs[0][0] == 0 and runs[-1][1] == n
        assert all(stop - start <= cap * BLOCK_SIZE for start, stop in runs)
        monkeypatch.setattr(cir_model, "_LOCKSTEP_BLOCKS", 1)
        alone = simulate_ensemble(params44, 1.0, 5, n, 77, n_workers=1)
        assert len(runs) == 3 + 2 * cap + 1
        for field in ("x_T", "S", "Sigma"):
            np.testing.assert_array_equal(getattr(capped, field), getattr(alone, field))

    def test_seed_changes_output(self, params44):
        e1 = simulate_ensemble(params44, 1.0, 20, 64, 123)
        e2 = simulate_ensemble(params44, 1.0, 20, 64, 124)
        assert not np.array_equal(e1.x_T, e2.x_T)

    def test_mean_terminal_state(self, params44):
        T = 2.0
        ens = simulate_ensemble(params44, T, 80, 4000, 9)
        mean, var = conditional_moments(params44, T, params44.x0)
        assert abs(ens.x_T.mean() - mean) < 5.0 * math.sqrt(var / 4000)

    def test_one_step_law_is_noncentral_chi_squared(self, params44):
        T, n = 0.8, 5000
        k = transition_kernel(params44, T, params44.x0)
        ens = simulate_ensemble(params44, T, 1, n, 31)
        res = stats.kstest(ens.x_T / k.scale, stats.ncx2(params44.a, k.noncentrality).cdf)
        assert res.pvalue > 0.01

    def test_time_average_covariance_is_the_cgf_hessian(self, params44):
        # T Cov(S_T, Sigma_T) tends to the Hessian of Lambda in (mu, nu) at 0,
        # [[16, -2], [-2, 0.5]] at (4, -1); the reference is taken here by
        # central differences of cgf_limit.  Each entry is the mean of
        # per-path products, and its standard error is theirs.
        T, n, h = 100.0, 4000, 1e-4
        ens = simulate_ensemble(params44, T, 5000, n, 6)
        dev = math.sqrt(T) * np.stack([ens.S - ens.S.mean(), ens.Sigma - ens.Sigma.mean()])

        def lam(mu, nu):
            return cgf_limit(params44, CgfPoint(0.0, mu, nu, 0.0))

        hessian = np.array([
            [(lam(h, 0.0) - 2.0 * lam(0.0, 0.0) + lam(-h, 0.0)) / h**2,
             (lam(h, h) - lam(h, -h) - lam(-h, h) + lam(-h, -h)) / (4.0 * h * h)],
            [0.0, (lam(0.0, h) - 2.0 * lam(0.0, 0.0) + lam(0.0, -h)) / h**2],
        ])
        for i, j in ((0, 0), (0, 1), (1, 1)):
            products = dev[i] * dev[j]
            cov = float(products.sum()) / (n - 1)
            se = float(products.std(ddof=1)) / math.sqrt(n)
            assert abs(cov - hessian[i, j]) <= 4.0 * se, (i, j, cov, hessian[i, j], se)

    def test_quadrature_matches_functionals_module(self, params44):
        # The on-the-fly (S, Sigma) reduction must agree with the trapezoid
        # rule applied to a stored trajectory with the same states.
        ens = simulate_ensemble(params44, 1.5, 30, 1, 77)
        assert ens.S.shape == (1,)
        rng = path_rng(321, 0)
        traj = simulate_path(params44, 1.5, 30, rng)
        pf = compute_functionals(traj)
        w = np.ones(31)
        w[0] = 0.5
        w[-1] = 0.5
        dt = 1.5 / 30
        assert pf.S == pytest.approx(float(w @ traj.values) * dt / 1.5, rel=1e-14)
        assert pf.Sigma == pytest.approx(float(w @ (1.0 / traj.values)) * dt / 1.5, rel=1e-14)

    def test_domain_errors(self, params44):
        with pytest.raises(DomainError):
            simulate_ensemble(params44, 1.0, 10, 0, 1)
        with pytest.raises(DomainError):
            simulate_ensemble(params44, 1.0, 10, 10, -5)


class TestHorizons:
    # An unsorted grid with a repeated horizon, all with step 0.1.
    HORIZONS = [(40, 4.0), (10, 1.0), (20, 2.0), (10, 1.0)]

    @pytest.mark.parametrize("n_paths, n_workers", [(300, 1), (300, 3), (17_000, 1), (17_000, 3)])
    def test_every_horizon_is_its_standalone_run(self, params44, n_paths, n_workers):
        # 17 000 paths are five blocks: more than one lockstep job even on
        # one worker.
        assert {T / n for n, T in self.HORIZONS} == {0.1}
        runs = cir_model._simulate_horizons(params44, self.HORIZONS, n_paths, 31, n_workers)
        assert [e.T for e in runs] == [T for _, T in self.HORIZONS]
        for (n_steps, T), ens in zip(self.HORIZONS, runs):
            alone = simulate_ensemble(params44, T, n_steps, n_paths, 31, n_workers=n_workers)
            for field in ("x_T", "S", "Sigma"):
                np.testing.assert_array_equal(getattr(ens, field), getattr(alone, field))

    @pytest.mark.parametrize("n_workers", [1, 3])
    def test_every_horizon_is_its_observables(self, n_workers):
        # x0 = 2.5 makes L differ from log(X_T) / T.
        params = ProcessParams(4.0, -1.0, 2.5)
        runs = cir_model._simulate_horizons(params, self.HORIZONS, 3 * BLOCK_SIZE + 12, 31,
                                            n_workers)
        for ens in runs:
            _assert_is_its_observables(ens, params.x0)

    def test_one_run_steps_to_the_last_horizon_only(self, params44, monkeypatch):
        steps = []
        step = cir_model._step

        def counted(*args):
            steps.append(len(args[0]))
            return step(*args)

        monkeypatch.setattr(cir_model, "_step", counted)
        cir_model._simulate_horizons(params44, self.HORIZONS, 100, 31, 1)
        assert steps == [100] * 40

    def test_domain_errors(self, params44):
        with pytest.raises(DomainError):
            cir_model._simulate_horizons(params44, [(10, 1.0), (0, 0.0)], 10, 1)
        with pytest.raises(DomainError):
            cir_model._simulate_horizons(params44, [(10, 1.0)], 0, 1)


class TestTrajectoryValidation:
    def test_rejects_bad_grids(self, params44):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]), params44)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.5, 1.0]), np.array([1.0, 2.0]), params44)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0, -2.0]), params44)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([2.0, 2.0]), params44)
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.array([1.0]), params44)

    def test_csv_roundtrip_is_exact(self, params44, tmp_path):
        traj = simulate_path(params44, 2.0, 64, path_rng(8, 2))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        back = read_trajectory_csv(str(path), params44)
        np.testing.assert_array_equal(traj.times, back.times)
        np.testing.assert_array_equal(traj.values, back.values)

    def test_csv_bytes_and_no_temporary_file(self, params44, tmp_path):
        traj = simulate_path(params44, 1.0, 40, path_rng(8, 3))
        path = tmp_path / "traj.csv"
        path.write_text("stale\n")
        write_trajectory_csv(traj, str(path))
        rows = zip(traj.times, traj.values)
        expected = "t,x\n" + "".join(f"{float(t)!r},{float(x)!r}\n" for t, x in rows)
        assert path.read_bytes() == expected.encode("ascii")
        assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]

    def test_csv_bytes_when_grids_alternate(self, params44, tmp_path):
        # csv_text keeps the last grid's time column: grid A, then B, then
        # A again, then A one ulp off at one node, and A once more, must each
        # give the per-row formula's bytes.
        a = simulate_path(params44, 1.0, 40, path_rng(8, 3))
        b = simulate_path(params44, 2.5, 92, path_rng(8, 5))
        times = a.times.copy()
        times[17] = np.nextafter(times[17], np.inf)
        nudged = Trajectory(times, a.values, params44)
        for k, traj in enumerate((a, b, a, nudged, a)):
            path = tmp_path / f"traj_{k}.csv"
            write_trajectory_csv(traj, str(path))
            rows = zip(traj.times, traj.values)
            expected = "t,x\n" + "".join(f"{float(t)!r},{float(x)!r}\n" for t, x in rows)
            assert path.read_bytes() == expected.encode("ascii")
        assert (tmp_path / "traj_3.csv").read_bytes() != (tmp_path / "traj_2.csv").read_bytes()

    def test_csv_header_check(self, params44, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,state\n0.0,1.0\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(str(path), params44)


class TestTrajectoryCsvReader:
    @staticmethod
    def _read(tmp_path, params, text, newline="\n"):
        path = tmp_path / "traj.csv"
        path.write_bytes(text.replace("\n", newline).encode("ascii"))
        return read_trajectory_csv(str(path), params)

    _BAD_SHAPES = [
        "0.0,1.0\n0.5\n1.0,2.0\n",
        "0.0,1.0\n0.5,2.0,3.0\n1.0,2.0\n",
        "0.0,1.0,9.0\n0.5,2.0,9.0\n",
        "0.0\n0.5\n",
        "0.0,1.0\n   \n0.5,2.0\n",
        "0.0,1.0\n0.5,\n",
    ]
    _NON_FINITE = [
        ("0.0,1.0\n0.5,nan\n1.0,2.0\n", "all states must be finite and strictly positive"),
        ("0.0,1.0\n0.5,inf\n1.0,2.0\n", "all states must be finite and strictly positive"),
        ("0.0,1.0\n0.5,-inf\n", "all states must be finite and strictly positive"),
        ("0.0,1.0\nnan,2.0\n1.0,3.0\n", "grid times must be finite and strictly increasing"),
        ("0.0,1.0\n0.5,2.0\nnan,3.0\n", "grid times must be finite and strictly increasing"),
        ("0.0,1.0\n0.5,2.0\ninf,3.0\n", "grid times must be finite and strictly increasing"),
    ]

    @pytest.mark.parametrize("body", _BAD_SHAPES)
    def test_rows_need_exactly_two_fields(self, params44, tmp_path, body):
        with pytest.raises(ValueError):
            self._read(tmp_path, params44, "t,x\n" + body)

    @pytest.mark.parametrize(
        "body, message",
        _NON_FINITE,
        ids=["nan state", "inf state", "-inf state", "nan time", "nan last time", "inf time"],
    )
    def test_non_finite_rows_raise(self, params44, tmp_path, body, message):
        # A corrupted file fails on reading, before any functional or
        # estimator turns it into nan.
        with pytest.raises(ValueError) as info:
            self._read(tmp_path, params44, "t,x\n" + body)
        assert str(info.value) == message

    def test_header_only_file_raises(self, params44, tmp_path):
        # The documented ValueError, with no warning first: under warnings
        # as errors a warning would reach the caller in its place.
        for body in ("", "\n\n"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="has no rows"):
                    self._read(tmp_path, params44, "t,x\n" + body)

    # Every bad file raises the package's own error: a bad header, no rows,
    # a row of another shape (numpy's error, wrapped) and a non-finite row.
    @pytest.mark.parametrize(
        "text",
        ["time,state\n0.0,1.0\n", "t,x\n", "t,x\n0.0,one\n"]
        + ["t,x\n" + body for body in _BAD_SHAPES]
        + ["t,x\n" + body for body, _ in _NON_FINITE],
    )
    def test_bad_files_raise_the_package_error(self, params44, tmp_path, text):
        with pytest.raises(CirLdpError):
            self._read(tmp_path, params44, text)

    def test_crlf_reads_as_lf(self, params44, tmp_path):
        traj = simulate_path(params44, 2.5, 92, path_rng(8, 4))
        path = tmp_path / "lf.csv"
        write_trajectory_csv(traj, str(path))
        text = path.read_text()
        assert "\r" not in text
        lf = self._read(tmp_path, params44, text)
        crlf = self._read(tmp_path, params44, text, newline="\r\n")
        for got in (lf, crlf):
            assert got.times.tobytes() == traj.times.tobytes()
            assert got.values.tobytes() == traj.values.tobytes()

    def test_empty_lines_are_skipped(self, params44, tmp_path):
        got = self._read(tmp_path, params44, "t,x\n0.0,1.0\n\n0.5,2.0\n\n")
        assert got.times.tolist() == [0.0, 0.5]
        assert got.values.tolist() == [1.0, 2.0]

    def test_values_equal_float_of_their_text(self, params44, tmp_path):
        texts = [
            "1.0",
            "5e-324",
            "1e-300",
            "0.30000000000000004",
            "2.2250738585072014e-308",
            "0.12345678901234568",
            "1.2345678901234567e+17",
            "9.8765432109876541",
            "3.1415926535897931e-05",
            "1e300",
            "1.7976931348623157e+308",
        ]
        times = [repr(0.25 * k) for k in range(len(texts))]
        body = "".join(f"{t},{x}\n" for t, x in zip(times, texts))
        got = self._read(tmp_path, params44, "t,x\n" + body)
        assert [v.hex() for v in got.values.tolist()] == [float(x).hex() for x in texts]
        assert [v.hex() for v in got.times.tolist()] == [float(t).hex() for t in times]

    def test_columns_are_contiguous_copies(self, params44, tmp_path):
        traj = simulate_path(params44, 2.0, 64, path_rng(8, 5))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        back = read_trajectory_csv(str(path), params44)
        assert back.times.flags.c_contiguous and back.values.flags.c_contiguous
        assert back.times.base is None and back.values.base is None
        pf, pf_back = compute_functionals(traj), compute_functionals(back)
        assert (pf_back.S, pf_back.Sigma) == (pf.S, pf.Sigma)


# Input checks of the model layer: (id, call on (4, -1), the error it raises).
_INPUT_CHECKS = [
    ("kernel horizon", lambda p: transition_kernel(p, 0.0, 1.0),
     DomainError("horizon t must be positive and finite, got 0.0")),
    ("kernel state", lambda p: transition_kernel(p, 1.0, 0.0),
     DomainError("state x must be positive and finite, got 0.0")),
    ("sample state", lambda p: sample_transition(p, 1.0, -1.0, path_rng(1, 0)),
     DomainError("state x must be positive and finite, got -1.0")),
    # nan where a positive value is required, and an infinite simulated horizon.
    ("kernel horizon nan", lambda p: transition_kernel(p, math.nan, 1.0),
     DomainError("horizon t must be positive and finite, got nan")),
    ("kernel state nan", lambda p: transition_kernel(p, 1.0, math.nan),
     DomainError("state x must be positive and finite, got nan")),
    ("moments horizon nan", lambda p: conditional_moments(p, math.nan, 1.0),
     DomainError("horizon t must be positive and finite, got nan")),
    ("moments state nan", lambda p: conditional_moments(p, 1.0, math.nan),
     DomainError("state x must be positive and finite, got nan")),
    ("sample state nan", lambda p: sample_transition(p, 1.0, math.nan, path_rng(1, 0)),
     DomainError("state x must be positive and finite, got nan")),
    ("sample horizon nan", lambda p: sample_transition(p, math.nan, 1.0, path_rng(1, 0)),
     DomainError("horizon t must be positive and finite, got nan")),
    ("density state nan", lambda p: transition_log_density(p, 1.0, math.nan, 1.0),
     DomainError("state x must be positive and finite, got nan")),
    ("density end nan", lambda p: transition_log_density(p, 1.0, 1.0, math.nan),
     DomainError("state y must be positive and finite, got nan")),
    ("Bessel argument nan", lambda p: bessel_log_i(1.0, math.nan),
     DomainError("Bessel argument must be positive and finite, got z=nan")),
    ("ensemble T nan", lambda p: simulate_ensemble(p, math.nan, 10, 3, 1),
     DomainError("horizon T must be positive and finite, got nan")),
    ("ensemble T inf", lambda p: simulate_ensemble(p, math.inf, 10, 3, 1),
     DomainError("horizon T must be positive and finite, got inf")),
    ("path T inf", lambda p: simulate_path(p, math.inf, 10, path_rng(1, 0)),
     DomainError("horizon T must be positive and finite, got inf")),
    ("path T nan", lambda p: simulate_path(p, math.nan, 10, path_rng(1, 0)),
     DomainError("horizon T must be positive and finite, got nan")),
    ("2-D trajectory", lambda p: Trajectory(np.zeros((2, 2)), np.ones((2, 2)), p),
     DomainError("times and values must be one-dimensional")),
    ("empty trajectory", lambda p: Trajectory(np.array([]), np.array([]), p),
     DomainError("trajectory needs at least one grid point")),
    ("seed type", lambda p: simulate_ensemble(p, 1.0, 10, 2, "7"),
     DomainError("seed must be an int or a numpy Generator, got '7'")),
    ("seed float", lambda p: simulate_ensemble(p, 1.0, 10, 2, 7.0),
     DomainError("seed must be an int or a numpy Generator, got 7.0")),
    ("no steps", lambda p: simulate_ensemble(p, 1.0, 0, 2, 7),
     DomainError("n_steps must be at least 1, got 0")),
    # One rule for a time or a state: positive and finite.  At t = inf the
    # law would be the stationary one, and at x = inf there is none.
    ("kernel horizon inf", lambda p: transition_kernel(p, math.inf, 1.0),
     DomainError("horizon t must be positive and finite, got inf")),
    ("kernel state inf", lambda p: transition_kernel(p, 1.0, math.inf),
     DomainError("state x must be positive and finite, got inf")),
    ("moments horizon inf", lambda p: conditional_moments(p, math.inf, 1.0),
     DomainError("horizon t must be positive and finite, got inf")),
    ("moments state inf", lambda p: conditional_moments(p, 1.0, math.inf),
     DomainError("state x must be positive and finite, got inf")),
    ("sample horizon inf", lambda p: sample_transition(p, math.inf, 1.0, path_rng(1, 0)),
     DomainError("horizon t must be positive and finite, got inf")),
    ("sample state inf", lambda p: sample_transition(p, 1.0, math.inf, path_rng(1, 0)),
     DomainError("state x must be positive and finite, got inf")),
    ("density horizon inf", lambda p: transition_log_density(p, math.inf, 1.0, 1.0),
     DomainError("horizon t must be positive and finite, got inf")),
    ("density state inf", lambda p: transition_log_density(p, 1.0, math.inf, 1.0),
     DomainError("state x must be positive and finite, got inf")),
    ("density end inf", lambda p: transition_log_density(p, 1.0, 1.0, math.inf),
     DomainError("state y must be positive and finite, got inf")),
    # A count is an int of at least 1 (a bool is not one), and so is a
    # worker count; a seed is not a bool either.
    ("path float steps", lambda p: simulate_path(p, 1.0, 10.0, path_rng(1, 0)),
     DomainError("n_steps must be an integer, got 10.0")),
    ("path bool steps", lambda p: simulate_path(p, 1.0, True, path_rng(1, 0)),
     DomainError("n_steps must be an integer, got True")),
    ("ensemble float steps", lambda p: simulate_ensemble(p, 1.0, 10.0, 5, 1),
     DomainError("n_steps must be an integer, got 10.0")),
    ("ensemble bool steps", lambda p: simulate_ensemble(p, 1.0, True, 5, 1),
     DomainError("n_steps must be an integer, got True")),
    ("ensemble float paths", lambda p: simulate_ensemble(p, 1.0, 10, 5.0, 1),
     DomainError("n_paths must be an integer, got 5.0")),
    ("ensemble no workers", lambda p: simulate_ensemble(p, 1.0, 10, 5, 1, n_workers=0),
     DomainError("n_workers must be at least 1, got 0")),
    ("ensemble negative workers", lambda p: simulate_ensemble(p, 1.0, 10, 5, 1, n_workers=-4),
     DomainError("n_workers must be at least 1, got -4")),
    ("ensemble float workers", lambda p: simulate_ensemble(p, 1.0, 10, 5, 1, n_workers=2.0),
     DomainError("n_workers must be an integer, got 2.0")),
    ("seed bool", lambda p: simulate_ensemble(p, 1.0, 10, 5, True),
     DomainError("seed must be an unsigned 64-bit integer, got True")),
    # An order whose lgamma(nu + 1) overflows, past about 2.5e305, in the
    # series and in the density's leading term.
    ("Bessel order past lgamma", lambda p: bessel_log_i(1.7e308, 1.0),
     DomainError("Bessel order nu=1.7e+308 is too large: lgamma(nu + 1) overflows")),
    ("Bessel order just past lgamma", lambda p: bessel_log_i(3e305, 1.0),
     DomainError("Bessel order nu=3e+305 is too large: lgamma(nu + 1) overflows")),
    ("Bessel order and argument past lgamma", lambda p: bessel_log_i(1e306, 1e306),
     DomainError("Bessel order nu=1e+306 is too large: lgamma(nu + 1) overflows")),
    ("density order past lgamma",
     lambda p: transition_log_density(ProcessParams(5e306, -1.0), 1.0, 1.0, 1.0),
     DomainError("Bessel order nu=2.5e+306 is too large: lgamma(nu + 1) overflows")),
    ("density leading term past lgamma",
     lambda p: transition_log_density(ProcessParams(5e306, -1.0), 1.0, 1e-305, 1e-305),
     DomainError("Bessel order nu=2.5e+306 is too large: lgamma(nu + 1) overflows")),
    # A time, a state, a Bessel order or argument is a real number: an int
    # or a float, Python's or numpy's, and not a bool.
    ("ensemble T string", lambda p: simulate_ensemble(p, "1", 10, 2, 7),
     DomainError("horizon T must be a real number, got '1'")),
    ("ensemble T bool", lambda p: simulate_ensemble(p, True, 10, 2, 7),
     DomainError("horizon T must be a real number, got True")),
    ("path T string", lambda p: simulate_path(p, "1", 10, path_rng(1, 0)),
     DomainError("horizon T must be a real number, got '1'")),
    ("kernel horizon None", lambda p: transition_kernel(p, None, 1.0),
     DomainError("horizon t must be a real number, got None")),
    ("kernel horizon numpy bool", lambda p: transition_kernel(p, np.bool_(True), 1.0),
     DomainError("horizon t must be a real number, got np.True_")),
    ("moments state bool", lambda p: conditional_moments(p, 1.0, True),
     DomainError("state x must be a real number, got True")),
    ("sample state string", lambda p: sample_transition(p, 1.0, "1", path_rng(1, 0)),
     DomainError("state x must be a real number, got '1'")),
    ("density end string", lambda p: transition_log_density(p, 1.0, 1.0, "2"),
     DomainError("state y must be a real number, got '2'")),
    ("Bessel order string", lambda p: bessel_log_i("1", 1.0),
     DomainError("Bessel order nu must be a real number, got '1'")),
    ("Bessel order bool", lambda p: bessel_log_i(False, 1.0),
     DomainError("Bessel order nu must be a real number, got False")),
    ("Bessel argument None", lambda p: bessel_log_i(1.0, None),
     DomainError("Bessel argument z must be a real number, got None")),
    # An int past float range reads as +-inf, as 1e400 does, so it is not
    # finite.
    ("ensemble T huge int", lambda p: simulate_ensemble(p, 10**400, 10, 3, 1),
     DomainError(f"horizon T must be positive and finite, got {10**400}")),
    ("kernel horizon huge int", lambda p: transition_kernel(p, 10**400, 1.0),
     DomainError(f"horizon t must be positive and finite, got {10**400}")),
    ("sample state huge negative int",
     lambda p: sample_transition(p, 1.0, -(10**400), path_rng(1, 0)),
     DomainError(f"state x must be positive and finite, got {-(10**400)}")),
    ("steps for a huge int rate", lambda p: cir_model._steps_for(1.0, 10**400),
     DomainError(f"steps per unit time must be positive and finite, got {10**400}")),
    ("Bessel order huge int", lambda p: bessel_log_i(10**400, 1.0),
     DomainError(f"Bessel order must be nonnegative and finite, got nu={10**400}")),
    ("Bessel argument huge int", lambda p: bessel_log_i(1.0, 10**400),
     DomainError(f"Bessel argument must be positive and finite, got z={10**400}")),
    ("Bessel argument huge negative int", lambda p: bessel_log_i(1.0, -(10**400)),
     DomainError(f"Bessel argument must be positive and finite, got z={-(10**400)}")),
]


@pytest.mark.parametrize(
    "call, error", [c[1:] for c in _INPUT_CHECKS], ids=[c[0] for c in _INPUT_CHECKS]
)
def test_input_checks(params44, call, error):
    with pytest.raises(type(error)) as info:
        call(params44)
    assert str(info.value) == str(error)


# bessel_log_i at orders where a term's log, near -nu log nu, cannot resolve
# the series' 50-fold stopping test, and at infinite order or argument.  An
# infinite order once looped forever, so the calls run in a child process
# whose timeout fails the test instead of hanging the suite.
_HUGE_ORDER_CALLS = """
import math
from cir_ldp import DomainError, ProcessParams, bessel_log_i, transition_log_density
for nu in (1e24, 1e300):
    leading = nu * math.log(0.5) - math.lgamma(nu + 1.0)
    assert math.isclose(bessel_log_i(nu, 1.0), leading, rel_tol=1e-15), nu
assert -math.inf < transition_log_density(ProcessParams(1e24, -1.0), 1.0, 1.0, 1.0) < 0.0
for nu, z in ((math.inf, 1.0), (0.0, math.inf)):
    try:
        bessel_log_i(nu, z)
    except DomainError as exc:
        print(exc)
"""


def test_bessel_at_huge_and_infinite_order_ends():
    src = str(Path(cir_ldp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_ORDER_CALLS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "Bessel order must be nonnegative and finite, got nu=inf",
        "Bessel argument must be positive and finite, got z=inf",
    ]
