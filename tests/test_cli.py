"""Command line interface: parsing, precedence, exit codes, artifacts."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cir_ldp import (
    ESTIMATORS,
    ProcessParams,
    functionals_from_summary,
    rate_I_mle,
    rate_J,
    rate_K,
    rate_marginal,
    rate_pair,
    rate_S,
    rate_Sigma,
    rate_triplet_L,
    rate_triplet_x,
    rate_V,
    path_rng,
    simulate_ensemble,
    simulate_path,
    write_trajectory_csv,
)
from cir_ldp.cli import _fmt_value, main, parse_config

P44 = ProcessParams(4.0, -1.0)

# Every rate --which selector, its flags at one admissible point, and the
# library value there.
_RATE_CASES = [
    ("J", {"alpha": 3.0, "beta": -0.5}, lambda: rate_J(P44, 3.0, -0.5)),
    ("K", {"alpha": 3.0, "beta": -0.5}, lambda: rate_K(P44, 3.0, -0.5)),
    ("I", {"alpha": 3.0, "beta": -0.5}, lambda: rate_I_mle(P44, 3.0, -0.5)),
    *(
        (m, {"alpha": 3.0}, lambda m=m: rate_marginal(P44, m, 3.0))
        for m in ("Ja", "Ka", "Ia")
    ),
    *(
        (m, {"beta": -0.5}, lambda m=m: rate_marginal(P44, m, -0.5))
        for m in ("Jb", "Kb", "Ib")
    ),
    ("S", {"x": 3.0}, lambda: rate_S(P44, 3.0)),
    ("Sigma", {"y": 0.8}, lambda: rate_Sigma(P44, 0.8)),
    ("V", {"v": 1.5}, lambda: rate_V(P44, 1.5)),
    ("pair", {"x": 3.0, "y": 0.8}, lambda: rate_pair(P44, 3.0, 0.8)),
    ("triplet_x", {"x": 1.0, "y": 3.0, "z": 0.8}, lambda: rate_triplet_x(P44, 1.0, 3.0, 0.8)),
    ("triplet_L", {"y": 3.0, "z": 0.8, "t": -0.5}, lambda: rate_triplet_L(P44, 3.0, 0.8, -0.5)),
]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRateCommand:
    def test_infsup_special_point(self, capsys):
        rc, out, _ = run(capsys, "rate", "--which", "I", "--alpha", "0", "--beta", "0", "--a", "4", "--b", "-1")
        assert rc == 0
        assert out.strip() == "1.414214"

    def test_named_point(self, capsys):
        rc, out, _ = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--a", "4", "--b", "-1")
        assert rc == 0
        assert out.strip() == "1.000000"

    def test_inf_printed_as_literal(self, capsys):
        rc, out, _ = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "-1", "--a", "4", "--b", "-1")
        assert rc == 0
        assert out.strip() == "inf"

    def test_marginal_zero_without_sign(self, capsys):
        rc, out, _ = run(capsys, "rate", "--which", "Ja", "--alpha", "4", "--a", "4", "--b", "-1")
        assert rc == 0
        assert out.strip() == "0.000000"

    def test_grid_mode_writes_csv(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "rate", "--which", "J", "--grid", "--a", "4", "--b", "-1",
            "--alpha-min", "3", "--alpha-max", "5", "--beta-min", "-2",
            "--beta-max", "-1", "--n-alpha", "4", "--n-beta", "3",
            "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "rate_J_grid.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,J,K,I"
        assert len(lines) == 13

    def test_off_branch_point_prints_inf(self, capsys):
        # Rate surfaces are total functions; off-branch points evaluate to inf.
        rc, out, _ = run(capsys, "rate", "--which", "I", "--alpha", "-1", "--beta", "-1", "--a", "4", "--b", "-1")
        assert rc == 0
        assert out.strip() == "inf"

    @pytest.mark.parametrize(
        "which, coords, expected", _RATE_CASES, ids=[c[0] for c in _RATE_CASES]
    )
    def test_every_selector_prints_the_library_value(self, capsys, which, coords, expected):
        flags = [arg for k, v in coords.items() for arg in (f"--{k}", str(v))]
        rc, out, _ = run(capsys, "rate", "--which", which, *flags, "--a", "4", "--b", "-1")
        assert rc == 0
        value = expected()
        assert 0.0 < value < float("inf")
        assert out.strip() == _fmt_value(value)

    def test_missing_coordinate_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "rate", "--which", "I", "--alpha", "0", "--a", "4", "--b", "-1")
        assert rc == 2
        payload = json.loads(err)
        assert set(payload) == {"error", "message"}


class TestCgfCommand:
    def test_point_value(self, capsys):
        rc, out, _ = run(capsys, "cgf", "--a", "4", "--b", "-1", "--gamma", "-1")
        assert rc == 0
        assert out.strip() == "0.125000"

    def test_gradient_vector(self, capsys):
        rc, out, _ = run(capsys, "cgf", "--a", "4", "--b", "-1", "--gradient")
        assert rc == 0
        assert out.split() == ["0.000000", "4.000000", "0.500000", "0.000000"]

    def test_mc_requires_seed(self, capsys):
        rc, _, err = run(capsys, "cgf", "--a", "4", "--b", "-1", "--mc", "--T", "2", "--paths", "100")
        assert rc == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_gradient_at_domain_boundary_is_numeric_error(self, capsys):
        rc, _, err = run(capsys, "cgf", "--a", "4", "--b", "-1", "--gradient", "--mu", "0.125")
        assert rc == 3
        payload = json.loads(err)
        assert payload["error"] == "BoundaryError"
        assert set(payload) == {"error", "message"}

    def test_mc_report(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "cgf", "--a", "4", "--b", "-1", "--mc", "--T", "2",
            "--paths", "200", "--seed", "11", "--n-steps", "100",
            "--out", str(tmp_path),
        )
        assert rc == 0
        payload = json.loads((tmp_path / "cgf_mc_report.json").read_text())
        assert payload["experiment"] == "cgf_mc"
        assert "estimate" in payload["metrics"]


class TestAtomicArtifacts:
    def test_artifact_bytes_and_no_temporary_files(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "cgf", "--a", "4", "--b", "-1", "--mc", "--T", "1",
            "--paths", "50", "--seed", "2", "--n-steps", "50", "--out", str(tmp_path),
        )
        assert rc == 0
        assert (tmp_path / "cgf_mc_report.json").read_bytes() == out.encode("utf-8")
        rc, _, _ = run(
            capsys, "simulate", "--a", "4", "--b", "-1", "--T", "1", "--n-steps", "20",
            "--paths", "1", "--seed", "2", "--out", str(tmp_path),
        )
        assert rc == 0
        rc, _, _ = run(
            capsys, "rate", "--which", "K", "--grid", "--a", "4", "--b", "-1",
            "--n-alpha", "3", "--n-beta", "2", "--out", str(tmp_path),
        )
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["cgf_mc_report.json", "rate_K_grid.csv", "traj_00000.csv"]


class TestConfigHandling:
    def test_regime_rejection(self, capsys):
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--a", "1", "--b", "-1")
        assert rc == 2
        assert json.loads(err)["error"] == "RegimeError"

    def test_missing_parameters(self, capsys):
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0")
        assert rc == 2

    def test_unknown_config_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "bogus": 1}))
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--config", str(cfgfile))
        assert rc == 2
        assert json.loads(err)["error"] == "ConfigError"

    def test_nested_config_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "sim": {"T": 2.0}}))
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--config", str(cfgfile))
        assert rc == 2

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "alpha": 2.0, "beta": -1.0}))
        rc, out, _ = run(capsys, "rate", "--which", "J", "--config", str(cfgfile), "--beta", "0")
        assert rc == 0
        assert out.strip() == "1.000000"

    def test_config_supplies_all_values(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "which": "K", "alpha": 0.0, "beta": 0.0}))
        rc, out, _ = run(capsys, "rate", "--config", str(cfgfile))
        assert rc == 0
        assert out.strip() == "1.414214"

    def test_simulate_requires_seed(self, capsys, tmp_path):
        rc, _, err = run(capsys, "simulate", "--a", "4", "--b", "-1", "--T", "1", "--paths", "1", "--out", str(tmp_path))
        assert rc == 2
        assert "seed" in json.loads(err)["message"]

    def test_bad_seed_rejected(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "simulate", "--a", "4", "--b", "-1", "--T", "1", "--paths", "1",
            "--seed", "-3", "--out", str(tmp_path),
        )
        assert rc == 2


    def test_single_command_file_keys_load(self, capsys, tmp_path):
        # Keys that only one subcommand defines are config-file keys too.
        grid_cfg = tmp_path / "grid.json"
        grid_cfg.write_text(json.dumps({"a": 4.0, "b": -1.0, "which": "K", "grid": True,
                                        "n_alpha": 3, "n_beta": 2}))
        rc, _, _ = run(capsys, "rate", "--config", str(grid_cfg), "--out", str(tmp_path))
        assert rc == 0
        assert len((tmp_path / "rate_K_grid.csv").read_text().splitlines()) == 1 + 3 * 2
        cgf_cfg = tmp_path / "cgf.json"
        cgf_cfg.write_text(json.dumps({"a": 4.0, "b": -1.0, "lam": 0.1, "mu": -0.1,
                                       "nu": -0.1, "gamma": -0.1}))
        _, from_file, _ = run(capsys, "cgf", "--config", str(cgf_cfg))
        _, from_flags, _ = run(capsys, "cgf", "--a", "4", "--b", "-1", "--lam", "0.1",
                               "--mu", "-0.1", "--nu", "-0.1", "--gamma", "-0.1")
        assert from_file == from_flags
        slope_cfg = tmp_path / "slope.json"
        slope_cfg.write_text(json.dumps({"a": 4.0, "b": -1.0, "seed": 1, "T_grid": [2, 4]}))
        assert parse_config(str(slope_cfg)).settings["T_grid"] == (2.0, 4.0)

    def test_suite_is_not_a_file_key(self, capsys, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "suite": "clt"}))
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--config", str(cfgfile))
        assert rc == 2
        assert json.loads(err) == {"error": "ConfigError", "message": "unknown config key 'suite'"}


class TestSimulateEstimate:
    def test_roundtrip(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "simulate", "--a", "4", "--b", "-1", "--T", "5", "--n-steps", "100",
            "--paths", "2", "--seed", "21", "--out", str(tmp_path),
        )
        assert rc == 0
        files = sorted(p.name for p in tmp_path.glob("traj_*.csv"))
        assert files == ["traj_00000.csv", "traj_00001.csv"]
        rc, _, _ = run(
            capsys, "estimate", "--a", "4", "--b", "-1", "--T", "5", "--n-steps", "100",
            "--paths", "2", "--seed", "21", "--estimator", "all", "--out", str(tmp_path),
        )
        assert rc == 0
        lines = (tmp_path / "estimates.csv").read_text().splitlines()
        assert lines[0] == "path_id,estimator,alpha,beta"
        assert len(lines) == 1 + 2 * 4

    def test_estimate_rows_are_per_path_estimates(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "estimate", "--a", "4", "--b", "-1", "--T", "2", "--n-steps", "50",
            "--paths", "3", "--seed", "8", "--out", str(tmp_path),
        )
        assert rc == 0
        ens = simulate_ensemble(ProcessParams(4.0, -1.0), 2.0, 100, 3, 8)
        expected = ["path_id,estimator,alpha,beta"]
        for i in range(3):
            pf = functionals_from_summary(
                ens.T, 1.0, float(ens.x_T[i]), float(ens.S[i]), float(ens.Sigma[i])
            )
            for name, fn in ESTIMATORS.items():
                est = fn(pf)
                expected.append(f"{i},{name},{float(est.alpha)!r},{float(est.beta)!r}")
        assert (tmp_path / "estimates.csv").read_text().splitlines() == expected

    def test_deterministic_artifacts(self, capsys, tmp_path):
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        for out in (out1, out2):
            rc, _, _ = run(
                capsys, "simulate", "--a", "4", "--b", "-1", "--T", "2",
                "--n-steps", "50", "--paths", "1", "--seed", "33", "--out", str(out),
            )
            assert rc == 0
        assert (out1 / "traj_00000.csv").read_bytes() == (out2 / "traj_00000.csv").read_bytes()

    @staticmethod
    def _simulate(capsys, out, T, per_unit, n_paths, seed, *extra):
        rc, _, _ = run(
            capsys, "simulate", "--a", "4", "--b", "-1", "--T", repr(T),
            "--n-steps", str(per_unit), "--paths", str(n_paths), "--seed", str(seed),
            "--out", str(out), *extra,
        )
        assert rc == 0

    def test_csv_bytes_on_alternating_grids(self, capsys, tmp_path):
        # Paths on two grids, written alternately by write_trajectory_csv and
        # by simulate, each match the plain per-row formula: no file may
        # carry another grid's time column.
        def expected(traj):
            rows = zip(traj.times.tolist(), traj.values.tolist())
            return ("t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in rows)).encode("ascii")

        grids = [(2.5, 37), (1.3, 11)]  # 92 and 14 steps; 2.5/92 has long reprs
        for k in range(4):
            T, per_unit = grids[k % 2]
            n_steps = int(round(T * per_unit))
            traj = simulate_path(P44, T, n_steps, path_rng(40 + k, 0))
            path = tmp_path / f"direct_{k}.csv"
            write_trajectory_csv(traj, str(path))
            assert path.read_bytes() == expected(traj)
            T, per_unit = grids[(k + 1) % 2]
            n_steps = int(round(T * per_unit))
            out = tmp_path / f"sim_{k}"
            self._simulate(capsys, out, T, per_unit, 3, 50 + k)
            for i in range(3):
                traj = simulate_path(P44, T, n_steps, path_rng(50 + k, i))
                assert (out / f"traj_{i:05d}.csv").read_bytes() == expected(traj)

    def test_workers_do_not_change_files(self, capsys, tmp_path):
        for workers in ("1", "2"):
            self._simulate(capsys, tmp_path / f"w{workers}", 2.5, 37, 5, 61, "--workers", workers)
        one = sorted((tmp_path / "w1").iterdir())
        two = sorted((tmp_path / "w2").iterdir())
        assert [p.name for p in one] == [f"traj_{i:05d}.csv" for i in range(5)]
        assert [p.name for p in two] == [p.name for p in one]
        for a, b in zip(one, two):
            assert a.read_bytes() == b.read_bytes()


class TestCheckSuites:
    def test_clt_small_run_artifact_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w3"
        codes = []
        for out, workers in ((out1, "1"), (out2, "3")):
            rc, _, _ = run(
                capsys, "check", "clt", "--a", "4", "--b", "-1", "--T", "3",
                "--paths", "400", "--seed", "5", "--n-steps", "300",
                "--workers", workers, "--out", str(out),
            )
            codes.append(rc)
        assert codes[0] == codes[1]
        b1 = (out1 / "clt_report.json").read_bytes()
        b2 = (out2 / "clt_report.json").read_bytes()
        assert b1 == b2

    def test_clt_all_estimators_payload(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "check", "clt", "--a", "4", "--b", "-1", "--T", "2",
            "--paths", "300", "--seed", "5", "--n-steps", "200",
            "--estimator", "all", "--tolerance", "100", "--out", str(tmp_path),
        )
        assert rc == 0
        payload = json.loads((tmp_path / "clt_report.json").read_text())
        assert [r["settings"]["estimator"] for r in payload["reports"]] == ["mle", "tilde", "check"]
        assert payload["pass"] is True

    def test_clt_tight_tolerance_fails(self, capsys, tmp_path):
        rc, _, _ = run(
            capsys, "check", "clt", "--a", "4", "--b", "-1", "--T", "2",
            "--paths", "200", "--seed", "5", "--n-steps", "200",
            "--tolerance", "1e-6", "--out", str(tmp_path),
        )
        assert rc == 1
        payload = json.loads((tmp_path / "clt_report.json").read_text())
        assert payload["pass"] is False

    def test_slope_inconclusive_exit_code(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "check", "slope", "--a", "4", "--b", "-1", "--functional", "S",
            "--c", "40", "--T-grid", "2,4", "--paths", "200", "--seed", "3",
            "--out", str(tmp_path),
        )
        assert rc == 3
        assert json.loads(err)["error"] == "InconclusiveError"

    def test_check_requires_seed_only_for_mc_suites(self, capsys, tmp_path):
        rc, _, err = run(capsys, "check", "clt", "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc == 2
        rc, _, _ = run(
            capsys, "check", "continuity", "--a", "4", "--b", "-1", "--out", str(tmp_path)
        )
        assert rc == 0

    def test_continuity_tight_tolerance_fails(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "check", "continuity", "--a", "4", "--b", "-1",
            "--tolerance", "1e-20", "--out", str(tmp_path),
        )
        assert rc == 1
        payload = json.loads((tmp_path / "continuity_report.json").read_text())
        assert payload["pass"] is False
        assert payload["settings"]["marginal_tolerance"] == 1e-20
        assert json.loads(out) == payload

    def test_unknown_suite(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "check", "everything", "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc == 2


class TestFigures:
    def test_fig1_grid_artifact(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "figures", "--fig", "1", "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "fig1.csv").read_text().splitlines()
        assert lines[0] == "alpha,beta,J,K,I"
        assert len(lines) == 1 + 41 * 41
        payload = json.loads(out)
        assert payload["metrics"]["max_shared_branch_diff"] <= 1e-9

    def test_unknown_fig(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "figures", "--fig", "9", "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc == 2


class TestParser:
    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "simulate" in out

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, "rate", "--which", "J", "--frobnicate", "1")
        assert rc == 2

    def test_missing_command_is_usage_error(self, capsys):
        rc, _, _ = run(capsys)
        assert rc == 2
