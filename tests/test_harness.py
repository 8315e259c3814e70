"""Experiment harness: CLT reports, tail slopes, surface grids, profiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cir_ldp import (
    CgfPoint,
    DomainError,
    InconclusiveError,
    ProcessParams,
    cgf_finite_T_mc,
    clt_experiments,
    clt_target_covariance,
    profile_curves,
    rate_I_mle,
    rate_J,
    rate_K,
    rate_marginal,
    rate_S,
    rate_V,
    slope_experiment,
    surface_grid,
)
from cir_ldp import harness, simulate_ensemble
from cir_ldp.cir_model import _substream
from cir_ldp.harness import SurfaceGrid


class TestCltTarget:
    def test_matrix_at_4_minus1(self, params44):
        cov = clt_target_covariance(params44)
        np.testing.assert_allclose(cov.C, [[0.5, 1.0], [1.0, 4.0]], rtol=1e-14)
        np.testing.assert_allclose(cov.target, [[16.0, -4.0], [-4.0, 2.0]], rtol=1e-14)
        assert cov.det_C == pytest.approx(1.0, rel=1e-14)

    def test_target_is_four_c_inverse(self, regimes):
        for p in regimes:
            cov = clt_target_covariance(p)
            np.testing.assert_allclose(
                cov.target, 4.0 * np.linalg.inv(cov.C), rtol=1e-12
            )
            assert cov.det_C == pytest.approx(2.0 / (p.a - 2.0), rel=1e-12)


class TestCltExperiment:
    def test_report_shape_and_determinism(self, params44):
        (r1,) = clt_experiments(params44, ["mle"], T=5.0, n_paths=400, rng=3, n_steps=500)
        (r2,) = clt_experiments(
            params44, ["mle"], T=5.0, n_paths=400, rng=3, n_steps=500, n_workers=2
        )
        assert r1.estimator == "mle"
        assert (r1.T, r1.n_paths, r1.n_steps, r1.seed) == (5.0, 400, 500, 3)
        np.testing.assert_array_equal(r1.covariance, r2.covariance)
        np.testing.assert_array_equal(r1.mean, r2.mean)
        assert r1.covariance.shape == (2, 2)
        assert r1.covariance[0, 1] == r1.covariance[1, 0]
        assert isinstance(r1.passed, bool)

    def test_to_dict_payload(self, params44):
        (r,) = clt_experiments(params44, ["tilde"], T=2.0, n_paths=200, rng=1, n_steps=200)
        d = r.to_dict()
        assert d["experiment"] == "clt"
        assert d["settings"]["estimator"] == "tilde"
        assert set(d["metrics"]) == {"mean", "covariance", "target", "relative_deviations"}
        assert isinstance(d["pass"], bool)

    def test_shared_ensemble_matches_single_runs(self, params44):
        multi = clt_experiments(
            params44, ["mle", "tilde", "check"], T=4.0, n_paths=300, rng=9, n_steps=400
        )
        for report in multi:
            (single,) = clt_experiments(
                params44, [report.estimator], T=4.0, n_paths=300, rng=9, n_steps=400
            )
            np.testing.assert_array_equal(report.covariance, single.covariance)

    def test_combined_estimator_accepted(self, params44):
        reports = clt_experiments(
            params44, ["mle", "combined"], T=4.0, n_paths=300, rng=9, n_steps=400
        )
        assert [r.estimator for r in reports] == ["mle", "combined"]
        assert np.all(np.isfinite(reports[1].covariance))
        np.testing.assert_array_equal(reports[1].target, reports[0].target)

    def test_unknown_estimator_rejected(self, params44):
        with pytest.raises(DomainError):
            clt_experiments(params44, ["median"], T=2.0, n_paths=50, rng=0, n_steps=100)

    def test_no_estimators_are_rejected_before_simulating(self, params44, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "simulate_ensemble", no_simulation)
        with pytest.raises(DomainError, match="estimators must be non-empty"):
            clt_experiments(params44, [], T=1.0, n_paths=10, rng=1, n_steps=20)

    def test_one_path_is_rejected_before_simulating(self, params44, monkeypatch):
        # One sample has no covariance: numpy would warn and give NaN.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "simulate_ensemble", no_simulation)
        with pytest.raises(DomainError, match="n_paths must be at least 2"):
            clt_experiments(params44, ["mle"], T=1.0, n_paths=1, rng=1, n_steps=20)


class TestSlopeExperiment:
    def test_upper_tail_report(self, params44):
        rep = slope_experiment(
            params44, "S", c=5.0, T_grid=(2.0, 4.0), n_paths=3000, rng=12,
            n_steps_per_unit=40,
        )
        assert rep.functional == "S"
        assert rep.upper_tail is True
        assert rep.target_rate == pytest.approx(rate_S(params44, 5.0), rel=1e-14)
        assert len(rep.slopes) == 2
        assert all(s > 0.0 for s in rep.slopes)
        assert all(h >= rep.n_min for h in rep.hits)

    def test_lower_tail_uses_left_probability(self, params44):
        rep = slope_experiment(
            params44, "S", c=3.0, T_grid=(2.0,), n_paths=3000, rng=12,
            n_steps_per_unit=40,
        )
        assert rep.upper_tail is False
        assert rep.target_rate == pytest.approx(rate_S(params44, 3.0), rel=1e-14)

    def test_v_functional(self, params44):
        rep = slope_experiment(
            params44, "V", c=2.0, T_grid=(2.0,), n_paths=2000, rng=12,
            n_steps_per_unit=40,
        )
        assert rep.upper_tail is True
        assert rep.target_rate == pytest.approx(rate_V(params44, 2.0), rel=1e-14)
        assert rep.hits[0] >= rep.n_min

    def test_deterministic_across_workers(self, params44):
        r1 = slope_experiment(
            params44, "Sigma", c=0.8, T_grid=(2.0, 3.0), n_paths=2000, rng=4,
            n_steps_per_unit=40, n_workers=1,
        )
        r2 = slope_experiment(
            params44, "Sigma", c=0.8, T_grid=(2.0, 3.0), n_paths=2000, rng=4,
            n_steps_per_unit=40, n_workers=3,
        )
        assert r1.slopes == r2.slopes
        assert r1.hits == r2.hits

    @staticmethod
    def _record_calls(monkeypatch) -> list:
        calls = []
        simulate_horizons = harness._simulate_horizons

        def recorded(params, horizons, *args):
            calls.append(horizons)
            return simulate_horizons(params, horizons, *args)

        monkeypatch.setattr(harness, "_simulate_horizons", recorded)
        return calls

    @staticmethod
    def _standalone_hits(params, T, n_steps, seed_index):
        # Upper-tail hits of S >= 4.5 in a standalone run of 2 000 paths
        # seeded as slope_experiment seeds grid index seed_index (seed 17).
        rng = _substream(17, 2, seed_index)
        ens = simulate_ensemble(params, T, n_steps, 2000, rng)
        return int(np.count_nonzero(ens.S >= 4.5))

    @pytest.mark.parametrize("T_grid", [(1.0, 2.0, 4.0), (4.0, 1.0, 2.0), (2.0, 4.0, 4.0, 1.0)])
    def test_one_ensemble_records_every_horizon(self, params44, monkeypatch, T_grid):
        # One step size: one ensemble, seeded as the largest horizon's own
        # run, which keeps that horizon's hits, slope and verdict.  Every
        # shorter horizon is a standalone run on the same seed, and the
        # report stays in grid order.
        calls = self._record_calls(monkeypatch)
        rep = slope_experiment(params44, "S", 4.5, T_grid, 2000, 17, n_steps_per_unit=50)
        assert calls == [[(round(50 * T), T) for T in T_grid]]
        i_max = T_grid.index(4.0)
        for T, hits, slope in zip(T_grid, rep.hits, rep.slopes):
            assert hits == self._standalone_hits(params44, T, round(50 * T), i_max)
            assert slope == -math.log(hits / 2000) / T
        assert rep.passed == (abs(rep.slopes[i_max] - rep.target_rate) <= 0.3 * rep.target_rate)

    def test_mixed_step_grid_runs_one_ensemble_per_step(self, params44, monkeypatch):
        # At 50 steps per unit T = 0.01 takes 2 steps of 0.005, and T = 1 and
        # T = 2 take steps of 0.02: two ensembles, seeded by the grid index
        # of their longest horizon.
        calls = self._record_calls(monkeypatch)
        T_grid = (0.01, 1.0, 2.0)
        rep = slope_experiment(params44, "S", 4.5, T_grid, 2000, 17, n_steps_per_unit=50)
        assert calls == [[(2, 0.01)], [(50, 1.0), (100, 2.0)]]
        for i, (T, n_steps, seed_index) in enumerate(zip(T_grid, (2, 50, 100), (0, 2, 2))):
            assert rep.hits[i] == self._standalone_hits(params44, T, n_steps, seed_index)

    @pytest.mark.parametrize("functional", ["S", "Sigma", "V"])
    def test_threshold_at_the_ergodic_mean_is_rejected(self, params44, functional, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(harness, "_simulate_horizons", no_simulation)
        mean = harness.SLOPE_FUNCTIONALS[functional][0](params44)
        with pytest.raises(DomainError, match="ergodic mean"):
            slope_experiment(params44, functional, mean, (1.0,), 100, 1)

    @pytest.mark.parametrize("a, b", [(4.0, -1.0), (3.0, -1.0), (5.0, -1.0), (3.0, -2.0)])
    def test_check_default_thresholds_leave_the_mean(self, a, b, monkeypatch):
        # The old fixed thresholds, 5 for S and 1 for Sigma and V, sit on the
        # mean of V at a = 4, of Sigma at (3, -1) and of S at (5, -1).
        seen = {}

        def record(params, functional, c, *args, **kwargs):
            seen[functional] = c
            raise InconclusiveError("not simulated")

        monkeypatch.setattr(harness, "slope_experiment", record)
        p = ProcessParams(a, b)
        for functional, (mean, rate) in harness.SLOPE_FUNCTIONALS.items():
            with pytest.raises(InconclusiveError):
                harness.CHECK_SUITES["slope"](p, n_paths=10, seed=1, functional=functional)
            assert seen[functional] > mean(p)
            assert rate(p, seen[functional]) > 0.0
        if (a, b) == (4.0, -1.0):
            assert seen == {"S": 5.0, "Sigma": 1.0, "V": 2.0}

    def test_inconclusive_when_tail_is_empty(self, params44):
        with pytest.raises(InconclusiveError):
            slope_experiment(
                params44, "S", c=40.0, T_grid=(2.0, 4.0), n_paths=500, rng=2,
                n_steps_per_unit=30,
            )


@pytest.fixture(scope="module")
def grid(params44) -> SurfaceGrid:
    return surface_grid(params44, n_alpha=13, n_beta=11)


@pytest.fixture(scope="module")
def curves(params44):
    return profile_curves(params44, grid=np.linspace(-4.0, 8.0, 25))


class TestSurfaceGrid:
    def test_axes_and_shapes(self, grid):
        assert grid.alphas.shape == (13,)
        assert grid.betas.shape == (11,)
        assert grid.J.shape == (13, 11)
        assert grid.alphas[0] == 3.0 and grid.alphas[-1] == 5.0
        assert grid.betas[0] == -4.0 and grid.betas[-1] == -0.5

    def test_i_is_elementwise_min(self, grid):
        np.testing.assert_array_equal(grid.I, np.minimum(grid.J, grid.K))

    def test_no_negative_values(self, grid):
        for surf in (grid.J, grid.K, grid.I):
            finite = surf[np.isfinite(surf)]
            assert finite.min() >= -1e-12

    def test_values_match_point_evaluations(self, grid, params44):
        for i in (0, 6, 12):
            for j in (0, 5, 10):
                al = float(grid.alphas[i])
                be = float(grid.betas[j])
                assert grid.J[i, j] == rate_J(params44, al, be)
                assert grid.K[i, j] == rate_K(params44, al, be)
                assert grid.I[i, j] == rate_I_mle(params44, al, be)

    def test_shared_branch_agreement(self, grid, params44):
        mask = grid.shared_branch_mask(params44)
        assert mask.any()
        assert grid.max_shared_diff(params44) <= 1e-9

    def test_argmin_near_truth(self, params44):
        g = surface_grid(params44, n_alpha=41, n_beta=41)
        i, j = np.unravel_index(np.argmin(g.I), g.I.shape)
        assert float(g.I[i, j]) <= 1e-3
        assert abs(float(g.alphas[i]) - params44.a) <= 0.06
        assert abs(float(g.betas[j]) - params44.b) <= 0.1

    def test_csv_is_stable(self, params44):
        g1 = surface_grid(params44, n_alpha=5, n_beta=4)
        g2 = surface_grid(params44, n_alpha=5, n_beta=4)
        assert g1.to_csv() == g2.to_csv()
        header = g1.to_csv().splitlines()[0]
        assert header == "alpha,beta,J,K,I"

    def test_inf_serialized_as_literal(self, params44):
        # Below alpha = 2 with beta < 0 the J surface is infinite while K stays
        # finite, so the CSV must carry the literal "inf".
        g = surface_grid(
            params44, alpha_range=(1.4, 1.6), beta_range=(-0.3, -0.2),
            n_alpha=2, n_beta=2,
        )
        text = g.to_csv()
        assert "inf" in text
        assert "Infinity" not in text


class TestProfileCurves:
    def test_pointwise_min_identities(self, curves):
        np.testing.assert_array_equal(curves.Ia, np.minimum(curves.Ja, curves.Ka))
        np.testing.assert_array_equal(curves.Ib, np.minimum(curves.Jb, curves.Kb))

    def test_matches_rate_marginal(self, curves, params44):
        for k in (0, 8, 16, 24):
            v = float(curves.v[k])
            assert curves.Ja[k] == rate_marginal(params44, "Ja", v)
            assert curves.Kb[k] == rate_marginal(params44, "Kb", v)
            assert curves.Ia[k] == rate_marginal(params44, "Ia", v)
            assert curves.Ib[k] == rate_marginal(params44, "Ib", v)

    def test_zero_point_values(self, params44):
        c = profile_curves(params44, grid=np.array([0.0]))
        assert c.Jb[0] == pytest.approx(1.0, abs=1e-12)
        assert c.Ib[0] == pytest.approx(1.0, abs=1e-12)
        assert c.Ja[0] == pytest.approx(2.0, abs=1e-12)
        assert c.Ka[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_vanish_at_truth(self, params44):
        c = profile_curves(params44, grid=np.array([params44.b, params44.a]))
        assert abs(c.Jb[0]) <= 1e-12
        assert abs(c.Ja[1]) <= 1e-12
        assert abs(c.Ia[1]) <= 1e-12


# Input checks and edge cases of the harness: (id, call on (4, -1), the
# value it returns or the error it raises).
_INPUT_CHECKS = [
    ("slope functional", lambda p: slope_experiment(p, "W", 5.0, (1.0,), 10, 1),
     DomainError("functional must be one of ['S', 'Sigma', 'V'], got 'W'")),
    ("slope empty T_grid", lambda p: slope_experiment(p, "S", 5.0, (), 10, 1),
     DomainError("T_grid must be non-empty")),
    ("clt no estimators", lambda p: clt_experiments(p, [], 1.0, 10, 1),
     DomainError("estimators must be non-empty")),
    # A threshold is finite: no path reaches an infinite one.
    ("slope c nan", lambda p: slope_experiment(p, "S", math.nan, (1.0,), 200, 3),
     DomainError("c must be finite, got nan")),
    ("slope c inf", lambda p: slope_experiment(p, "S", math.inf, (1.0,), 200, 3),
     DomainError("c must be finite, got inf")),
    ("slope c -inf", lambda p: slope_experiment(p, "Sigma", -math.inf, (1.0,), 200, 3),
     DomainError("c must be finite, got -inf")),
    # A horizon that is not positive and finite, before max(2, round(k T))
    # steps are counted from it, or when they are given.
    ("clt T inf", lambda p: clt_experiments(p, ["mle"], math.inf, 10, 1),
     DomainError("horizon T must be positive and finite, got inf")),
    ("clt T nan", lambda p: clt_experiments(p, ["mle"], math.nan, 10, 1),
     DomainError("horizon T must be positive and finite, got nan")),
    ("clt T nan, steps given", lambda p: clt_experiments(p, ["mle"], math.nan, 10, 1, n_steps=10),
     DomainError("horizon T must be positive and finite, got nan")),
    ("slope T_grid inf", lambda p: slope_experiment(p, "S", 5.0, (1.0, math.inf), 10, 1),
     DomainError("horizon T must be positive and finite, got inf")),
    ("slope T_grid nan", lambda p: slope_experiment(p, "S", 5.0, (math.nan,), 10, 1),
     DomainError("horizon T must be positive and finite, got nan")),
    ("cgf MC T inf", lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), math.inf, 10, 1),
     DomainError("horizon T must be positive and finite, got inf")),
    ("cgf MC T nan", lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), math.nan, 10, 1),
     DomainError("horizon T must be positive and finite, got nan")),
    ("cgf MC T inf, steps given",
     lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), math.inf, 10, 1, n_steps=10),
     DomainError("horizon T must be positive and finite, got inf")),
    # Counts are ints of at least 1, or 2 paths where a covariance or a
    # standard error is formed; a step rate is positive and finite.
    ("clt float steps", lambda p: clt_experiments(p, ["mle"], 1.0, 10, 1, n_steps=20.0),
     DomainError("n_steps must be an integer, got 20.0")),
    ("clt float paths", lambda p: clt_experiments(p, ["mle"], 1.0, 10.0, 1),
     DomainError("n_paths must be an integer, got 10.0")),
    ("cgf MC float steps",
     lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), 1.0, 10, 1, n_steps=2.5),
     DomainError("n_steps must be an integer, got 2.5")),
    ("cgf MC bool paths",
     lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), 1.0, True, 1),
     DomainError("n_paths must be an integer, got True")),
    ("slope nan step rate",
     lambda p: slope_experiment(p, "S", 5.0, (1.0,), 10, 1, n_steps_per_unit=math.nan),
     DomainError("steps per unit time must be positive and finite, got nan")),
    ("slope zero step rate",
     lambda p: slope_experiment(p, "S", 5.0, (1.0,), 10, 1, n_steps_per_unit=0),
     DomainError("steps per unit time must be positive and finite, got 0")),
    ("infinite grid range", lambda p: surface_grid(p, alpha_range=(3.0, math.inf)),
     DomainError("grid ranges must be finite")),
    # An int past float range reads as +-inf, as 1e400 does.
    ("huge int grid range", lambda p: surface_grid(p, beta_range=(-(10**400), -0.5)),
     DomainError("grid ranges must be finite")),
    ("slope c huge int", lambda p: slope_experiment(p, "S", 10**400, (1.0,), 200, 3),
     DomainError(f"c must be finite, got {10**400}")),
    ("slope c huge negative int",
     lambda p: slope_experiment(p, "Sigma", -(10**400), (1.0,), 200, 3),
     DomainError(f"c must be finite, got {-(10**400)}")),
    ("grid no alphas", lambda p: surface_grid(p, n_alpha=0),
     DomainError("n_alpha must be at least 1, got 0")),
    ("grid bool alphas", lambda p: surface_grid(p, n_alpha=True),
     DomainError("n_alpha must be an integer, got True")),
    ("grid float alphas", lambda p: surface_grid(p, n_alpha=2.5),
     DomainError("n_alpha must be an integer, got 2.5")),
    ("grid negative betas", lambda p: surface_grid(p, n_beta=-1),
     DomainError("n_beta must be at least 1, got -1")),
    # A threshold, a horizon, a step rate and a grid range's end are real
    # numbers: an int or a float, and not a bool.
    ("slope c string", lambda p: slope_experiment(p, "S", "5", (1.0,), 200, 3),
     DomainError("c must be a real number, got '5'")),
    ("slope c bool", lambda p: slope_experiment(p, "S", True, (1.0,), 200, 3),
     DomainError("c must be a real number, got True")),
    ("slope T_grid string", lambda p: slope_experiment(p, "S", 5.0, ("1",), 10, 1),
     DomainError("horizon T must be a real number, got '1'")),
    ("slope string step rate",
     lambda p: slope_experiment(p, "S", 5.0, (1.0,), 10, 1, n_steps_per_unit="50"),
     DomainError("steps per unit time must be a real number, got '50'")),
    ("clt T string", lambda p: clt_experiments(p, ["mle"], "1", 10, 1),
     DomainError("horizon T must be a real number, got '1'")),
    ("clt T bool, steps given", lambda p: clt_experiments(p, ["mle"], True, 10, 1, n_steps=10),
     DomainError("horizon T must be a real number, got True")),
    ("cgf MC T None",
     lambda p: cgf_finite_T_mc(p, CgfPoint(0.1, 0.0, 0.0, 0.0), None, 10, 1),
     DomainError("horizon T must be a real number, got None")),
    ("grid string range", lambda p: surface_grid(p, ("3", "5")),
     DomainError("a grid range's end must be a real number, got '3'")),
    ("grid None range end", lambda p: surface_grid(p, beta_range=(-4.0, None)),
     DomainError("a grid range's end must be a real number, got None")),
    # Every beta above b/3: no node on the shared branch, so no difference.
    ("no shared branch", lambda p: surface_grid(p, beta_range=(-0.2, -0.1), n_alpha=2,
                                                n_beta=2).max_shared_diff(p), 0.0),
]


@pytest.mark.parametrize(
    "call, expected", [c[1:] for c in _INPUT_CHECKS], ids=[c[0] for c in _INPUT_CHECKS]
)
def test_input_checks(params44, call, expected):
    if not isinstance(expected, Exception):
        assert call(params44) == expected
        return
    with pytest.raises(type(expected)) as info:
        call(params44)
    assert str(info.value) == str(expected)
