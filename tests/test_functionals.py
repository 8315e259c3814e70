"""Path functionals and the estimator couples."""

from __future__ import annotations

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from cir_ldp import (
    ESTIMATORS,
    DegenerateError,
    DomainError,
    GridError,
    PathFunctionals,
    ProcessParams,
    Trajectory,
    compute_functionals,
    estimate_check,
    estimate_combined,
    estimate_mle,
    estimate_tilde,
    ito_log_integral,
    path_rng,
    read_trajectory_csv,
    simulate_ensemble,
    simulate_path,
    write_trajectory_csv,
)
from cir_ldp import functionals


@pytest.fixture(scope="module")
def pf(params44):
    traj = simulate_path(params44, 100.0, 10000, path_rng(42, 0))
    return compute_functionals(traj)


class TestComputeFunctionals:
    def test_matches_manual_trapezoid(self, params44):
        traj = simulate_path(params44, 3.0, 90, path_rng(1, 5))
        pf = compute_functionals(traj)
        dt = 3.0 / 90
        w = np.ones(91)
        w[0] = w[-1] = 0.5
        assert pf.T == 3.0
        assert pf.S == pytest.approx(float(w @ traj.values) * dt / 3.0, rel=1e-14)
        assert pf.Sigma == pytest.approx(float(w @ (1.0 / traj.values)) * dt / 3.0, rel=1e-14)
        assert pf.xT_over_T == pytest.approx(traj.values[-1] / 3.0, rel=1e-14)
        assert pf.sqrt_xT_over_T == pytest.approx(math.sqrt(traj.values[-1] / 3.0), rel=1e-14)
        assert pf.L == pytest.approx(math.log(traj.values[-1]) / 3.0, rel=1e-12)
        assert pf.V == pytest.approx(pf.S * pf.Sigma - 1.0, rel=1e-14)

    def test_v_nonnegative(self, params44):
        for i in range(20):
            traj = simulate_path(params44, 0.5, 10, path_rng(2, i))
            assert compute_functionals(traj).V >= 0.0

    def test_grid_errors(self, params44):
        with pytest.raises(GridError):
            compute_functionals(Trajectory(np.array([0.0]), np.array([1.0]), params44))
        bad = Trajectory(np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 1.5]), params44)
        with pytest.raises(GridError):
            compute_functionals(bad)

    def test_curly_l_definition(self, params44):
        low = PathFunctionals(4.0, 1.0, 0.5, 3.0, 0.6)
        assert low.curlyL == pytest.approx(-math.sqrt(-math.log(0.5) / 4.0), rel=1e-14)
        high = PathFunctionals(4.0, 1.0, 2.5, 3.0, 0.6)
        assert high.curlyL == pytest.approx(math.log(2.5) / 4.0, rel=1e-14)


# PathFunctionals(T, x0, x_T, S, Sigma) and the hex of the five fields it
# forms (xT_over_T, sqrt_xT_over_T, L, curlyL, V), as version 0.6.0
# formed them: at X_T = 1, where curlyL switches, below 1 with
# x0 = 1.3, and above 1 with x0 = 2.5.
_FLOAT_GOLDENS = [
    ((4.0, 1.0, 1.0, 3.0, 0.6),
     ("0x1.0000000000000p-2", "0x1.0000000000000p-1", "0x0.0p+0", "0x0.0p+0",
      "0x1.9999999999998p-1")),
    ((7.0, 1.3, 0.37, 2.9, 0.52),
     ("0x1.b101767dce435p-5", "0x1.d6d9622625a4fp-3", "-0x1.6fa66caadf182p-3",
      "-0x1.81ebf67f36443p-2", "0x1.04189374bc6a8p-1")),
    ((49.0, 2.5, 2.4829177990687783, 4.1, 0.55),
     ("0x1.9f1a7315fad9ep-5", "0x1.cd034dc7a5decp-3", "-0x1.2571bb79f258dp-13",
      "0x1.3015cd8d005eep-6", "0x1.4147ae147ae14p+0")),
]

# The same for one array record at T = 7, x0 = 2.5: X_T = 1, below 1, above
# 1, one half-ulp below 1 and far above 1.
_ARRAY_ARGS = (
    [1.0, 0.37, 2.4829177990687783, 1.0 - 2**-53, 13.7],
    [3.0, 2.9, 4.1, 3.6, 6.2],
    [0.6, 0.52, 0.55, 0.41, 0.36],
)
_ARRAY_GOLDENS = {
    "xT_over_T": ["0x1.2492492492492p-3", "0x1.b101767dce435p-5", "0x1.6b3724b33b7eap-2",
                  "0x1.2492492492492p-3", "0x1.f507507507507p+0"],
    "sqrt_xT_over_T": ["0x1.83091e6a7f7e6p-2", "0x1.d6d9622625a4fp-3", "0x1.30ee6e94d06ebp-1",
                       "0x1.83091e6a7f7e6p-2", "0x1.6623808c61631p+0"],
    "L": ["-0x1.0c149ae375bb2p-3", "-0x1.177c32ac01e57p-2", "-0x1.00c3840ab40dbp-10",
          "-0x1.0c149ae375bb3p-3", "0x1.f1b1db1b10932p-3"],
    "curlyL": ["0x0.0p+0", "-0x1.81ebf67f36443p-2", "0x1.0a1313db60531p-3",
               "-0x1.11acee560242ap-28", "0x1.7ee33aff43272p-2"],
    "V": ["0x1.9999999999998p-1", "0x1.04189374bc6a8p-1", "0x1.4147ae147ae14p+0",
          "0x1.e76c8b4395810p-2", "0x1.3b645a1cac082p+0"],
}


# The five fields a record is built from, and the five it forms from them.
_ARGUMENTS = ("T", "x0", "x_T", "S", "Sigma")
_DERIVED = ("xT_over_T", "sqrt_xT_over_T", "L", "curlyL", "V")


def _observables(pf) -> dict:
    return {name: getattr(pf, name) for name in (*_ARGUMENTS, *_DERIVED)}


# Records that fail at construction: (id, arguments, message).  T and x0 are
# positive finite reals, as a horizon and a state are everywhere; every X_T
# is positive, and a NaN is not.
_BAD_RECORDS = [
    ("T string", ("a", 1.0, 1.0, 1.0, 1.0), "horizon T must be a real number, got 'a'"),
    ("T bool", (True, 1.0, 1.0, 1.0, 1.0), "horizon T must be a real number, got True"),
    ("T zero", (0.0, 1.0, 1.0, 1.0, 1.0), "horizon T must be positive and finite, got 0.0"),
    ("T negative", (-2.0, 1.0, 1.0, 1.0, 1.0), "horizon T must be positive and finite, got -2.0"),
    ("T nan", (math.nan, 1.0, 1.0, 1.0, 1.0), "horizon T must be positive and finite, got nan"),
    ("T inf", (math.inf, 1.0, 1.0, 1.0, 1.0), "horizon T must be positive and finite, got inf"),
    ("T huge int", (10**400, 1.0, 1.0, 1.0, 1.0),
     f"horizon T must be positive and finite, got {10**400}"),
    ("x0 None", (1.0, None, 1.0, 1.0, 1.0), "starting state x0 must be a real number, got None"),
    ("x0 zero", (1.0, 0.0, 1.0, 1.0, 1.0),
     "starting state x0 must be positive and finite, got 0.0"),
    ("x0 negative", (1.0, -1.0, 1.0, 1.0, 1.0),
     "starting state x0 must be positive and finite, got -1.0"),
    ("x0 nan", (1.0, math.nan, 1.0, 1.0, 1.0),
     "starting state x0 must be positive and finite, got nan"),
    ("x_T zero", (1.0, 1.0, 0.0, 1.0, 1.0), "terminal state x_T must be positive, got 0.0"),
    ("x_T negative", (1.0, 1.0, -0.5, 1.0, 1.0), "terminal state x_T must be positive, got -0.5"),
    ("x_T nan", (1.0, 1.0, math.nan, 1.0, 1.0), "terminal state x_T must be positive, got nan"),
    ("x_T string", (1.0, 1.0, "2", 1.0, 1.0), "terminal state x_T must be positive, got '2'"),
    ("x_T array with a zero", (1.0, 1.0, np.array([1.0, 0.0]), 1.0, 1.0),
     "terminal state x_T must be positive, got array([1., 0.])"),
    ("x_T array with a nan", (1.0, 1.0, np.array([1.0, math.nan]), 1.0, 1.0),
     "terminal state x_T must be positive, got array([ 1., nan])"),
]


class TestRecord:
    @pytest.mark.parametrize("args, want", _FLOAT_GOLDENS, ids=["X_T=1", "X_T<1", "X_T>1"])
    def test_float_fields_are_frozen(self, args, want):
        pf = PathFunctionals(*args)
        assert (pf.T, pf.x0, pf.x_T, pf.S, pf.Sigma) == args
        assert tuple(getattr(pf, name).hex() for name in _ARRAY_GOLDENS) == want

    def test_array_fields_are_frozen(self):
        x_T, S, Sigma = map(np.array, _ARRAY_ARGS)
        pf = PathFunctionals(7.0, 2.5, x_T, S, Sigma)
        got = {name: [v.hex() for v in getattr(pf, name).tolist()] for name in _ARRAY_GOLDENS}
        assert got == _ARRAY_GOLDENS

    def test_derived_fields_are_not_arguments(self):
        with pytest.raises(TypeError):
            PathFunctionals(1.0, 1.0, 1.0, 1.0, 1.0, L=0.0)

    @pytest.mark.parametrize(
        "args, message", [c[1:] for c in _BAD_RECORDS], ids=[c[0] for c in _BAD_RECORDS]
    )
    def test_bad_records_fail_at_construction(self, args, message):
        with pytest.raises(DomainError) as info:
            PathFunctionals(*args)
        assert str(info.value) == message

    def test_stored_path_keeps_its_ends(self, tmp_path):
        # Both ends bit for bit, at x0 = 2.5, simulated and read back.
        params = ProcessParams(4.0, -1.0, 2.5)
        traj = simulate_path(params, 3.0, 90, path_rng(1, 5))
        write_trajectory_csv(traj, str(tmp_path / "path.csv"))
        for t in (traj, read_trajectory_csv(str(tmp_path / "path.csv"), params)):
            pf = compute_functionals(t)
            assert type(pf.x_T) is float and type(pf.x0) is float
            assert pf.x_T.hex() == t.values[-1].hex()
            assert pf.x0.hex() == t.values[0].hex()


class TestLazyRecord:
    """The five derived fields are formed once, on first read."""

    def test_log_is_taken_on_first_read_of_L_or_curlyL(self, params44, monkeypatch):
        calls = []
        libm = functionals._libm

        def counted(fn, x):
            calls.append(fn)
            return libm(fn, x)

        monkeypatch.setattr(functionals, "_libm", counted)
        ens = simulate_ensemble(params44, 1.0, 20, 50, 3)
        for name in ("x_T", "S", "Sigma", "V", "xT_over_T", "sqrt_xT_over_T"):
            getattr(ens, name)
        assert calls == []
        ens.L, ens.curlyL, ens.L
        assert calls == [math.log]

    def test_derived_fields_are_absent_until_read(self):
        args = (7.0, 1.3, 0.37, 2.9, 0.52)
        pf = PathFunctionals(*args)
        assert tuple(f.name for f in dataclasses.fields(pf)) == _ARGUMENTS
        assert tuple(vars(pf)) == _ARGUMENTS
        for name in _DERIVED:
            getattr(pf, name)
        assert set(vars(pf)) == {*_ARGUMENTS, *_DERIVED, "_log_x_T"}
        assert repr(pf) == "PathFunctionals(T=7.0, x0=1.3, x_T=0.37, S=2.9, Sigma=0.52)"
        assert pf == PathFunctionals(*args)

    @pytest.mark.parametrize("kind", ["float", "array"])
    def test_a_second_read_returns_the_same_object(self, kind):
        to = float if kind == "float" else (lambda v: np.array([v, 2.0 * v]))
        pf = PathFunctionals(7.0, 1.3, to(0.37), to(2.9), to(0.52))
        for name in _DERIVED:
            assert getattr(pf, name) is getattr(pf, name), name

    @pytest.mark.parametrize("name", _DERIVED)
    def test_derived_fields_are_frozen(self, name):
        pf = PathFunctionals(7.0, 1.3, 0.37, 2.9, 0.52)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pf, name, 0.0)
        first = getattr(pf, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pf, name, 0.0)
        assert getattr(pf, name) is first


class TestEstimators:
    def test_mle_formula(self, pf):
        est = estimate_mle(pf)
        v = pf.S * pf.Sigma - 1.0
        assert est.alpha == pytest.approx(
            (pf.S * (2.0 * pf.Sigma + pf.L) - pf.xT_over_T) / v, rel=1e-14
        )
        assert est.beta == pytest.approx(
            ((pf.xT_over_T - 2.0) * pf.Sigma - pf.L) / v, rel=1e-14
        )

    def test_raw_integral_form_is_identical(self, pf):
        # The raw-integral estimator with R = int dX/X, recovered through the
        # Ito identity R = T L + 2 T Sigma, is the same rational function of
        # the path: both forms must agree to rounding.
        T = pf.T
        int_x = pf.S * T
        int_inv = pf.Sigma * T
        x_T = pf.xT_over_T * T
        r = ito_log_integral(pf)
        denom = int_x * int_inv - T * T
        alpha_raw = (int_x * r - T * x_T) / denom
        beta_raw = (x_T * int_inv - T * r) / denom
        est = estimate_mle(pf)
        assert est.alpha == pytest.approx(alpha_raw, rel=1e-12)
        assert est.beta == pytest.approx(beta_raw, rel=1e-12)

    # A derived field is not an argument of PathFunctionals, so a record with
    # one field changed is a namespace of its ten fields: the estimators only
    # read attributes.
    def test_tilde_drops_the_log_term(self, pf):
        no_log = SimpleNamespace(**{**_observables(pf), "L": 0.0})
        tilde = estimate_tilde(pf)
        assert tilde == estimate_mle(no_log)

    def test_check_drops_the_terminal_term(self, pf):
        no_term = SimpleNamespace(**{**_observables(pf), "xT_over_T": 0.0})
        check = estimate_check(pf)
        assert check == estimate_mle(no_term)

    def test_combined_selects_by_terminal_state(self):
        above = PathFunctionals(10.0, 1.0, 1.2, 4.1, 0.55)
        below = PathFunctionals(10.0, 1.0, 0.8, 4.1, 0.55)
        assert estimate_combined(above) == estimate_tilde(above)
        assert estimate_combined(below) == estimate_check(below)
        # X_T = 1 is on the tilde side, though X_T / T * T rounds below 1 at
        # T = 49; X_T within two ulps of 1, on T = 1, ..., 1000.
        at_one = PathFunctionals(49.0, 1.0, 1.0, 4.1, 0.55)
        assert at_one.xT_over_T * at_one.T < 1.0
        assert estimate_combined(at_one) == estimate_tilde(at_one)
        x_T = np.array([1.0 - 2**-52, 1.0 - 2**-53, 1.0, 1.0 + 2**-52, 1.0 + 2**-51])
        ones = np.ones_like(x_T)
        for T in range(1, 1001):
            pf = PathFunctionals(float(T), 1.0, x_T, 4.1 * ones, 0.55 * ones)
            combined, tilde, check = (
                fn(pf) for fn in (estimate_combined, estimate_tilde, estimate_check)
            )
            for field in ("alpha", "beta"):
                want = np.where(x_T >= 1.0, getattr(tilde, field), getattr(check, field))
                np.testing.assert_array_equal(getattr(combined, field), want, err_msg=str(T))

    def test_degenerate_path_raises(self, params44):
        flat = PathFunctionals(1.0, 1.0, 1.0, 1.0, 1.0)
        assert flat.V == 0.0
        for est in (estimate_mle, estimate_tilde, estimate_check, estimate_combined):
            with pytest.raises(DegenerateError):
                est(flat)

    def test_consistency_on_a_long_path(self, pf, params44):
        mle = estimate_mle(pf)
        assert abs(mle.alpha - params44.a) < 1.5
        assert abs(mle.beta - params44.b) < 0.6
        tilde = estimate_tilde(pf)
        check = estimate_check(pf)
        assert abs(tilde.alpha - mle.alpha) < 0.5
        assert abs(check.beta - mle.beta) < 0.5


class TestItoLogIntegral:
    def test_identity(self, pf):
        assert ito_log_integral(pf) == pytest.approx(
            pf.T * pf.L + 2.0 * pf.T * pf.Sigma, rel=1e-14
        )

    def test_positive_for_ergodic_paths(self, params44):
        # 2 T Sigma dominates T L for long horizons since Sigma -> -b/(a-2).
        traj = simulate_path(params44, 50.0, 5000, path_rng(6, 1))
        assert ito_log_integral(compute_functionals(traj)) > 0.0


@pytest.fixture(scope="module")
def ens(params44):
    return simulate_ensemble(params44, 5.0, 500, 5000, 7)


class TestArrayFunctionals:
    """Ensemble arrays in, the per-path scalar results out, to the bit."""

    def test_log_terms_use_libm(self, ens, params44):
        pf = PathFunctionals(ens.T, params44.x0, ens.x_T, ens.S, ens.Sigma)
        x0, T = params44.x0, ens.T
        for i, x in enumerate(ens.x_T.tolist()):
            assert pf.L[i] == (math.log(x) - math.log(x0)) / T

    def test_fields_match_per_path(self, ens, params44):
        pf = PathFunctionals(ens.T, params44.x0, ens.x_T, ens.S, ens.Sigma)
        for i in range(len(ens.x_T)):
            one = PathFunctionals(
                ens.T, params44.x0, float(ens.x_T[i]), float(ens.S[i]), float(ens.Sigma[i])
            )
            for field in ("xT_over_T", "sqrt_xT_over_T", "L", "curlyL", "V"):
                assert getattr(pf, field)[i] == getattr(one, field), (i, field)

    @pytest.mark.parametrize("name", ["mle", "tilde", "check", "combined"])
    def test_registry_matches_per_path(self, ens, params44, name):
        # X_T sits on both sides of 1, so combined takes both branches.
        assert np.any(ens.x_T < 1.0) and np.any(ens.x_T >= 1.0)
        fn = ESTIMATORS[name]
        est = fn(PathFunctionals(ens.T, params44.x0, ens.x_T, ens.S, ens.Sigma))
        alphas, betas = [], []
        for i in range(len(ens.x_T)):
            one = fn(
                PathFunctionals(
                    ens.T, params44.x0, float(ens.x_T[i]), float(ens.S[i]), float(ens.Sigma[i])
                )
            )
            alphas.append(one.alpha)
            betas.append(one.beta)
        np.testing.assert_array_equal(est.alpha, alphas)
        np.testing.assert_array_equal(est.beta, betas)

    @pytest.mark.parametrize("name", ["mle", "tilde", "check", "combined"])
    def test_estimators_take_the_ensemble(self, ens, params44, name):
        # The ensemble is a PathFunctionals: no caller converts it.
        built = PathFunctionals(ens.T, params44.x0, ens.x_T, ens.S, ens.Sigma)
        direct, converted = ESTIMATORS[name](ens), ESTIMATORS[name](built)
        np.testing.assert_array_equal(direct.alpha, converted.alpha)
        np.testing.assert_array_equal(direct.beta, converted.beta)

    def test_registry_order(self):
        assert list(ESTIMATORS) == ["mle", "tilde", "check", "combined"]

    def test_scalar_inputs_give_scalars(self):
        for kind in (float, np.float64):
            pf = PathFunctionals(10.0, 1.0, kind(0.8), kind(4.1), kind(0.55))
            for value in (pf.L, pf.curlyL, pf.sqrt_xT_over_T):
                assert not isinstance(value, np.ndarray)
            for fn in ESTIMATORS.values():
                est = fn(pf)
                assert not isinstance(est.alpha, np.ndarray)
                assert not isinstance(est.beta, np.ndarray)

    @pytest.mark.parametrize("kind", ["float", "numpy scalar", "array"])
    def test_every_input_kind_gives_the_float_formulas_bits(self, kind):
        # The fields and the four estimates, against the formulas in plain
        # float arithmetic with libm's log.  2.4829177990687783 is an X_T
        # where numpy's SIMD log differs from libm's on x86-64.
        T, x0 = 7.0, 1.3
        x_T = [0.37, 1.0, 2.4829177990687783, 13.7]
        S = [2.9, 3.6, 4.1, 6.2]
        Sigma = [0.52, 0.41, 0.55, 0.36]
        want = []
        for x, s, sg in zip(x_T, S, Sigma):
            log_x = math.log(x)
            xt, L, v = x / T, (log_x - math.log(x0)) / T, s * sg - 1.0
            tilde = ((2.0 * s * sg - xt) / v, (xt - 2.0) * sg / v)
            check = (s * (2.0 * sg + L) / v, (-2.0 * sg - L) / v)
            want.append([
                xt, math.sqrt(xt), L, -math.sqrt(-log_x / T) if x < 1.0 else log_x / T, v,
                (s * (2.0 * sg + L) - xt) / v, ((xt - 2.0) * sg - L) / v,
                *tilde, *check, *(tilde if x >= 1.0 else check),
            ])
        if kind == "array":
            pf = PathFunctionals(T, x0, np.array(x_T), np.array(S), np.array(Sigma))
            pfs = [pf]
        else:
            to = float if kind == "float" else np.float64
            pfs = [
                PathFunctionals(T, x0, to(x), to(s), to(sg))
                for x, s, sg in zip(x_T, S, Sigma)
            ]
        got = []
        for pf in pfs:
            values = [pf.xT_over_T, pf.sqrt_xT_over_T, pf.L, pf.curlyL, pf.V]
            for fn in ESTIMATORS.values():
                est = fn(pf)
                values += [est.alpha, est.beta]
            got.append(np.array(values, dtype=float).T)
        got = np.vstack(got) if kind == "array" else np.array(got)
        np.testing.assert_array_equal(got.view(np.uint64), np.array(want).view(np.uint64))

    def test_one_degenerate_path_raises(self):
        pf = PathFunctionals(
            1.0, 1.0, np.array([1.2, 1.0, 0.7]), np.array([1.3, 1.0, 0.9]),
            np.array([0.9, 1.0, 1.4]),
        )
        assert pf.V[1] == 0.0
        for fn in ESTIMATORS.values():
            with pytest.raises(DegenerateError):
                fn(pf)

    def test_nan_v_passes(self):
        pf = PathFunctionals(
            1.0, 1.0, np.array([1.2, 0.7]), np.array([1.3, math.nan]), np.array([0.9, 1.4])
        )
        est = estimate_mle(pf)
        assert math.isfinite(est.alpha[0]) and math.isnan(est.alpha[1])
