"""Model layer: parameters, transition law, Bessel function, exact sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from cir_ldp import (
    BLOCK_SIZE,
    ProcessParams,
    RegimeError,
    DomainError,
    Trajectory,
    bessel_log_i,
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
    validate_params,
    write_trajectory_csv,
)
from cir_ldp import cir_model
from cir_ldp.functionals import compute_functionals


class TestParams:
    def test_valid_regime(self):
        p = validate_params(4.0, -1.0)
        assert (p.a, p.b, p.x0) == (4.0, -1.0, 1.0)
        q = validate_params(2.001, -0.01, 3.5)
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
        ],
    )
    def test_regime_rejections(self, a, b, x0):
        with pytest.raises(RegimeError):
            validate_params(a, b, x0)

    def test_params_are_frozen(self, params44):
        with pytest.raises(Exception):
            params44.a = 5.0


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
            z = float(rng.uniform(0.05, 700.0))
            scaled = special.ive(nu, z)
            if scaled <= 0.0:
                continue
            ref = math.log(scaled) + z
            assert bessel_log_i(nu, z) == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_series_regime_small_z(self):
        # Below the series/ive split the reference is the exact two-term series.
        for nu in (0.0, 0.5, 1.0, 7.5):
            z = 1e-4
            lead = nu * math.log(z / 2.0) - math.lgamma(nu + 1.0)
            corr = math.log1p(z * z / (4.0 * (nu + 1.0)))
            assert bessel_log_i(nu, z) == pytest.approx(lead + corr, abs=1e-12)

    def test_continuity_at_series_switch(self):
        for nu in (0.0, 1.0, 12.5):
            below = bessel_log_i(nu, 30.0 - 1e-9)
            above = bessel_log_i(nu, 30.0 + 1e-9)
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
        x = rng.gamma(2.0, 2.0, 2000)
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


class TestEnsemble:
    def test_deterministic_and_worker_invariant(self, params44):
        n = BLOCK_SIZE + 37
        e1 = simulate_ensemble(params44, 1.0, 20, n, 123, n_workers=1)
        e2 = simulate_ensemble(params44, 1.0, 20, n, 123, n_workers=3)
        np.testing.assert_array_equal(e1.x_T, e2.x_T)
        np.testing.assert_array_equal(e1.S, e2.S)
        np.testing.assert_array_equal(e1.Sigma, e2.Sigma)
        assert e1.x_T.shape == (n,)

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

    @pytest.mark.parametrize(
        "body",
        [
            "0.0,1.0\n0.5\n1.0,2.0\n",
            "0.0,1.0\n0.5,2.0,3.0\n1.0,2.0\n",
            "0.0,1.0,9.0\n0.5,2.0,9.0\n",
            "0.0\n0.5\n",
            "0.0,1.0\n   \n0.5,2.0\n",
            "0.0,1.0\n0.5,\n",
        ],
    )
    def test_rows_need_exactly_two_fields(self, params44, tmp_path, body):
        with pytest.raises(ValueError):
            self._read(tmp_path, params44, "t,x\n" + body)

    @pytest.mark.filterwarnings("ignore:loadtxt")
    def test_header_only_file_raises(self, params44, tmp_path):
        with pytest.raises(ValueError):
            self._read(tmp_path, params44, "t,x\n")

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
