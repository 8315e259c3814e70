"""Command line interface: parsing, precedence, exit codes, artifacts."""

from __future__ import annotations

import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cir_ldp
from cir_ldp import (
    ESTIMATORS,
    PathFunctionals,
    ProcessParams,
    rate_I_mle,
    rate_J,
    rate_K,
    RATES,
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
from cir_ldp import cli, harness
from cir_ldp.cli import _fmt_value, _jsonable, main, parse_config
from cir_ldp.harness import CHECK_SUITES

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


# Each command once from flags and once from the same values in a config
# file: (id, command words, flags beyond --a 4 --b -1, the file's keys beyond
# a, b and out).
_FLAG_FILE_CASES = [
    ("simulate", ["simulate"], ["--T", "2.5", "--n-steps", "37", "--paths", "3", "--seed", "7"],
     {"T": 2.5, "n_steps": 37, "n_paths": 3, "seed": 7}),
    ("estimate", ["estimate"], ["--T", "2", "--n-steps", "50", "--paths", "3", "--seed", "8",
                                "--estimator", "tilde"],
     {"T": 2, "n_steps": 50, "n_paths": 3, "seed": 8, "estimator": "tilde"}),
    ("rate point", ["rate"], ["--which", "pair", "--x", "4", "--y", "1"],
     {"which": "pair", "x": 4, "y": 1}),
    ("rate grid", ["rate"], ["--which", "K", "--grid", "--alpha-min", "3.5", "--beta-max", "-1",
                             "--n-alpha", "3", "--n-beta", "2"],
     {"which": "K", "grid": True, "alpha_min": 3.5, "beta_max": -1, "n_alpha": 3, "n_beta": 2}),
    ("cgf", ["cgf"], ["--lam", "0.1", "--mu", "-0.1", "--nu", "-0.1", "--gamma", "-0.1"],
     {"lam": 0.1, "mu": -0.1, "nu": -0.1, "gamma": -0.1}),
    ("cgf mc", ["cgf"], ["--mc", "--T", "1", "--paths", "50", "--seed", "2", "--n-steps", "50"],
     {"mc": True, "T": 1, "n_paths": 50, "seed": 2, "n_steps": 50}),
    ("check continuity", ["check", "continuity"], ["--tolerance", "1e-5"], {"tolerance": 1e-5}),
    ("check clt", ["check", "clt"], ["--T", "2", "--paths", "200", "--seed", "5", "--n-steps",
                                     "100", "--estimator", "all", "--tolerance", "100"],
     {"T": 2, "n_paths": 200, "seed": 5, "n_steps": 100, "estimator": "all", "tolerance": 100}),
    ("check slope", ["check", "slope"], ["--functional", "Sigma", "--c", "0.8", "--T-grid",
                                         "1,2", "--paths", "1000", "--seed", "3"],
     {"functional": "Sigma", "c": 0.8, "T_grid": [1, 2], "n_paths": 1000, "seed": 3}),
    ("figures", ["figures"], ["--fig", "3"], {"fig": 3}),
]


# A run option out of range on a command that does not read it: (id, command
# words and flags beyond --a 4 --b -1, the bad option).
_UNREAD_OPTION_CASES = [
    ("rate", ["rate", "--which", "J", "--alpha", "3", "--beta", "-1"], ["--T", "0.001"]),
    ("cgf", ["cgf", "--lam", "0.1"], ["--T", "0.001"]),
    ("check slope", ["check", "slope", "--functional", "Sigma", "--c", "0.8", "--T-grid", "1,2",
                     "--paths", "1000", "--seed", "3"], ["--T", "0.001"]),
    ("figures", ["figures", "--fig", "3"], ["--paths", "0"]),
    # infsup takes neither T nor n_steps, so no grid is counted from them.
    ("check infsup", ["check", "infsup"], ["--T", "-1", "--n-steps", "0"]),
]

# The same option out of range on commands that read it.
_READ_OPTION_CASES = [
    ("simulate", ["simulate", "--paths", "1", "--seed", "1", "--T", "0.001"]),
    ("estimate", ["estimate", "--paths", "1", "--seed", "1", "--T", "0.001"]),
    ("cgf mc", ["cgf", "--mc", "--paths", "10", "--seed", "1", "--T", "0.001"]),
    ("check clt", ["check", "clt", "--paths", "10", "--seed", "1", "--T", "0.001"]),
    ("check slope", ["check", "slope", "--T-grid", "1,2", "--seed", "3", "--paths", "0"]),
]

_ENVELOPE = {"experiment", "params", "settings", "metrics", "pass"}

# Every command that prints a JSON report, with its flags beyond --a 4 --b -1
# and the file it also writes that report to (None: stdout only).
_REPORT_CASES = [
    (["simulate", "--T", "1", "--n-steps", "20", "--paths", "2", "--seed", "7"], None),
    (["estimate", "--T", "1", "--n-steps", "20", "--paths", "2", "--seed", "7"], None),
    (["rate", "--which", "I", "--grid", "--n-alpha", "3", "--n-beta", "2"], None),
    (["cgf", "--mc", "--T", "1", "--n-steps", "20", "--paths", "50", "--seed", "2"],
     "cgf_mc_report.json"),
    (["check", "clt", "--T", "2", "--n-steps", "50", "--paths", "100", "--seed", "5"],
     "clt_report.json"),
    (["check", "slope", "--functional", "Sigma", "--c", "0.8", "--T-grid", "1,2",
      "--paths", "1000", "--seed", "3"], "slope_report.json"),
    (["check", "legendre"], "legendre_report.json"),
    (["check", "infsup"], "infsup_report.json"),
    (["check", "continuity"], "continuity_report.json"),
    *((["figures", "--fig", fig], None) for fig in ("1", "2", "3")),
]


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _one_json_line(err: str) -> dict:
    """The JSON object of a failure's stderr, which must be exactly one line."""
    assert err.count("\n") == 1 and err.endswith("\n"), err
    return json.loads(err)


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
        # A known key, so the unknown-key check cannot answer first.
        cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, "T": {"v": 2}}))
        rc, _, err = run(capsys, "rate", "--which", "J", "--alpha", "2", "--beta", "0", "--config", str(cfgfile))
        assert rc == 2
        assert json.loads(err) == {
            "error": "ConfigError", "message": "config key 'T' must be flat, not nested"
        }

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
        ns = cli.build_parser().parse_args(["check", "slope", "--config", str(slope_cfg)])
        assert parse_config(ns)[1]["T_grid"] == (2.0, 4.0)

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
            pf = PathFunctionals(
                ens.T, 1.0, float(ens.x_T[i]), float(ens.S[i]), float(ens.Sigma[i])
            )
            for name, fn in ESTIMATORS.items():
                est = fn(pf)
                expected.append(f"{i},{name},{float(est.alpha)!r},{float(est.beta)!r}")
        assert (tmp_path / "estimates.csv").read_text().splitlines() == expected

    def test_readme_estimate_example(self, capsys, tmp_path):
        # The README's console session: the rows it shows under
        # `head -3 runs/estimates.csv` are those its estimate command writes.
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        lines = readme.split("$ cir-ldp estimate ", 1)[1].splitlines()
        argv = ["estimate", *lines[0].split()]
        assert lines[1] == "$ head -3 runs/estimates.csv"
        shown = lines[2:5]
        out = argv.index("--out") + 1
        assert argv[out] == "runs"
        argv[out] = str(tmp_path)
        assert run(capsys, *argv)[0] == 0
        assert (tmp_path / "estimates.csv").read_text().splitlines()[:3] == shown

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

    def test_slope_default_threshold_is_off_the_mean(self, capsys, tmp_path):
        # V's old default, 1, is its ergodic mean 2/(a-2) at a = 4, where
        # the rate is 0 and no slope passes; the default is now twice it.
        rc, _, _ = run(
            capsys, "check", "slope", "--functional", "V", "--a", "4", "--b", "-1",
            "--paths", "2000", "--seed", "1", "--T-grid", "1,2,4", "--out", str(tmp_path),
        )
        payload = json.loads((tmp_path / "slope_report.json").read_text())
        assert rc in (0, 1)
        assert payload["settings"]["c"] == 2.0
        assert payload["metrics"]["target_rate"] > 0.0

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


class TestReportEnvelope:
    @pytest.mark.parametrize(
        "argv, name", _REPORT_CASES, ids=[" ".join(argv[:2]) for argv, _ in _REPORT_CASES]
    )
    def test_every_report_is_one_envelope(self, capsys, tmp_path, monkeypatch, argv, name):
        # The shape, not the numbers: a stub transform keeps check legendre quick.
        monkeypatch.setattr(harness, "legendre_transform_numeric", lambda params, *point: 0.0)
        rc, out, _ = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc in (0, 1)
        payload = json.loads(out)
        assert set(payload) == _ENVELOPE
        assert payload["params"] == {"a": 4.0, "b": -1.0, "x0": 1.0}
        if name is not None:
            assert json.loads((tmp_path / name).read_text()) == payload

    def test_clt_all_nests_one_envelope_per_estimator(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "check", "clt", "--a", "4", "--b", "-1", "--T", "2", "--n-steps", "50",
            "--paths", "100", "--seed", "5", "--estimator", "all", "--out", str(tmp_path),
        )
        assert rc in (0, 1)
        payload = json.loads(out)
        assert set(payload) == _ENVELOPE - {"metrics"} | {"reports"}
        assert payload["params"] == {"a": 4.0, "b": -1.0, "x0": 1.0}
        assert payload["pass"] == all(r["pass"] for r in payload["reports"])
        for nested in payload["reports"]:
            assert set(nested) == _ENVELOPE
            assert nested["params"] == payload["params"]

    def test_library_suite_gives_the_written_report(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "check", "continuity", "--a", "4", "--b", "-1", "--out", str(tmp_path))
        assert rc == 0
        written = json.loads((tmp_path / "continuity_report.json").read_text())
        assert _jsonable(CHECK_SUITES["continuity"](P44)) == written


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
        rc, out, err = run(capsys, "rate", "--which", "J", "--frobnicate", "1")
        assert (rc, out) == (2, "")
        assert _one_json_line(err) == {
            "error": "ConfigError", "message": "unrecognized arguments: --frobnicate 1"
        }

    def test_missing_command_is_usage_error(self, capsys):
        rc, out, err = run(capsys)
        assert (rc, out) == (2, "")
        assert _one_json_line(err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rate", "--a"], "argument --a: expected one argument"),
            (["check", "everything"], "argument suite: invalid choice: 'everything'"),
            (["rate", "--grid", "1"], "unrecognized arguments: 1"),
            (["plot"], "argument command: invalid choice: 'plot'"),
        ],
        ids=["flag without value", "unknown suite", "switch with a value", "unknown command"],
    )
    def test_syntax_errors_are_one_json_line(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (2, "")
        payload = _one_json_line(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(message)

    def test_version_exits_zero(self, capsys):
        rc, out, err = run(capsys, "--version")
        assert (rc, out, err) == (0, cir_ldp.__version__ + "\n", "")

    def test_options_are_text_only_and_help_lists_the_choices(self, capsys):
        # argparse only splits argv: no option flag has a type or choices, so
        # _convert alone types a value, and --help lists choices as a metavar.
        commands = next(a for a in cli.build_parser()._actions if a.dest == "command")
        for command, sub in commands.choices.items():
            for action in sub._actions:
                if action.option_strings:
                    assert (action.type, action.choices) == (None, None), (command, action.dest)
        rc, out, _ = run(capsys, "rate", "--help")
        assert rc == 0
        assert "--which {" + ",".join(RATES) + "}" in out

    def test_which_choices_are_the_rate_table_in_order(self):
        # --help lists them in this order, so its bytes stay.
        assert cli._OPTIONS["which"][1] == tuple(RATES) == (
            "J", "K", "I", "Ja", "Jb", "Ka", "Kb", "Ia", "Ib",
            "S", "Sigma", "V", "pair", "triplet_x", "triplet_L",
        )

    def test_one_parser_serves_a_sequence_of_calls(self, capsys, tmp_path, monkeypatch):
        # main keeps one parser per process: a run, a usage error, a run on
        # another grid and the first run again must each give what the same
        # command gives alone in a fresh interpreter.
        common = ["--a", "4", "--b", "-1", "--paths", "2", "--seed", "9"]
        calls = [
            (0, ["simulate", "--T", "2.5", "--n-steps", "37", *common, "--out", "run0"]),
            (2, ["simulate", "--T", "0.001", *common, "--out", "run1"]),
            (0, ["simulate", "--T", "1.3", "--n-steps", "11", *common, "--out", "run2"]),
            (0, ["simulate", "--T", "2.5", "--n-steps", "37", *common, "--out", "run3"]),
        ]
        (tmp_path / "seq").mkdir()
        monkeypatch.chdir(tmp_path / "seq")
        outs = []
        for rc, argv in calls:
            assert main(argv) == rc
            outs.append(capsys.readouterr().out)
        assert not (tmp_path / "seq" / "run1").exists()
        src = str(Path(cir_ldp.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        (tmp_path / "alone").mkdir()
        for (rc, argv), out in zip(calls, outs):
            if rc:
                continue
            proc = subprocess.run(
                [sys.executable, "-m", "cir_ldp.cli", *argv],
                cwd=tmp_path / "alone",
                env={**os.environ, "PYTHONPATH": path},
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert (proc.returncode, proc.stdout) == (0, out)
            name = argv[-1]
            alone = sorted((tmp_path / "alone" / name).iterdir())
            seq = sorted((tmp_path / "seq" / name).iterdir())
            assert [p.name for p in seq] == ["traj_00000.csv", "traj_00001.csv"]
            assert [p.name for p in alone] == [p.name for p in seq]
            for a, b in zip(alone, seq):
                assert a.read_bytes() == b.read_bytes()


def _run_config(capsys, tmp_path, command: str, keys: dict) -> tuple[int, str, str]:
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"a": 4.0, "b": -1.0, **keys}))
    return run(capsys, *command.split(), "--config", str(cfgfile))


class TestConfigConversion:
    def test_file_mc_without_seed_is_config_error(self, capsys, tmp_path):
        rc, _, err = _run_config(capsys, tmp_path, "cgf", {"mc": True, "T": 2, "n_paths": 100})
        assert rc == 2
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert "seed" in payload["message"]

    def test_switch_takes_booleans_only(self, capsys, tmp_path):
        rc, _, err = _run_config(capsys, tmp_path, "cgf", {"mc": "false", "T": 2, "n_paths": 100})
        assert rc == 2
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("simulate", {"n_paths": 2.7, "seed": 1}),
            ("simulate", {"n_paths": 2, "seed": 1.9}),
            ("figures", {"fig": 2.7}),
        ],
        ids=["n_paths", "seed", "fig"],
    )
    def test_integer_keys_must_be_integral(self, capsys, tmp_path, command, keys):
        rc, out, err = _run_config(capsys, tmp_path, command, {"T": 1, "out": "out", **keys})
        assert rc == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert repr(next(v for v in keys.values() if isinstance(v, float))) in payload["message"]

    @pytest.mark.parametrize(
        "command, keys",
        [
            ("simulate", {"n_paths": True, "seed": 1}),
            ("simulate", {"n_paths": 2, "seed": True}),
            ("figures", {"fig": True}),
            ("simulate", {"n_paths": 2, "seed": 1, "T": True}),
            ("simulate", {"n_paths": 2, "seed": 1, "out": False}),
        ],
        ids=["n_paths", "seed", "fig", "T", "out"],
    )
    def test_only_switches_take_booleans(self, capsys, tmp_path, command, keys):
        rc, out, err = _run_config(capsys, tmp_path, command, {"T": 1, "out": "out", **keys})
        assert rc == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert repr(next(v for v in keys.values() if isinstance(v, bool))) in payload["message"]

    def test_integral_float_and_number_text_load(self, capsys, tmp_path):
        keys = {"which": "K", "grid": True, "n_alpha": "3", "n_beta": 2.0, "out": str(tmp_path)}
        rc, out, _ = _run_config(capsys, tmp_path, "rate", keys)
        assert rc == 0
        assert json.loads(out)["settings"]["n_alpha"] == 3
        assert len((tmp_path / "rate_K_grid.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_bad_clt_estimator_is_config_error(self, capsys, tmp_path):
        keys = {"T": 2, "n_paths": 100, "seed": 5, "estimator": "nope", "out": str(tmp_path)}
        rc, _, err = _run_config(capsys, tmp_path, "check clt", keys)
        assert rc == 2
        assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "command, flags, keys",
    [c[1:] for c in _FLAG_FILE_CASES],
    ids=[c[0] for c in _FLAG_FILE_CASES],
)
def test_flags_and_file_agree(capsys, tmp_path, monkeypatch, command, flags, keys):
    results = []
    for source in ("flags", "file"):
        work = tmp_path / source
        work.mkdir()
        monkeypatch.chdir(work)
        if source == "flags":
            rc, out, err = run(capsys, *command, "--a", "4", "--b", "-1", *flags, "--out", "out")
        else:
            rc, out, err = _run_config(capsys, tmp_path, " ".join(command), {"out": "out", **keys})
        artifacts = {p.name: p.read_bytes() for p in sorted(work.glob("out/*"))}
        results.append((rc, out, err, artifacts))
    assert results[0][0] in (0, 1)
    assert results[0] == results[1]


def test_mc_overflow_writes_one_json_line(tmp_path):
    # A fresh interpreter, so numpy's warnings reach stderr as they would.
    src = str(Path(cir_ldp.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cir_ldp.cli", "cgf", "--a", "4", "--b", "-1", "--mc",
         "--mu", "1e308", "--T", "1", "--paths", "10", "--seed", "1", "--n-steps", "20",
         "--out", "out"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert json.loads(proc.stderr)["error"] == "OverflowError"


@pytest.mark.parametrize(
    "argv, bad", [c[1:] for c in _UNREAD_OPTION_CASES], ids=[c[0] for c in _UNREAD_OPTION_CASES]
)
def test_unread_run_option_is_not_range_checked(capsys, tmp_path, monkeypatch, argv, bad):
    monkeypatch.chdir(tmp_path)
    plain = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", "out")
    assert plain[0] in (0, 1)
    assert run(capsys, *argv, "--a", "4", "--b", "-1", *bad, "--out", "out") == plain


@pytest.mark.parametrize(
    "argv", [c[1] for c in _READ_OPTION_CASES], ids=[c[0] for c in _READ_OPTION_CASES]
)
def test_read_run_option_is_range_checked(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", "out")
    assert (rc, out) == (2, "")
    assert json.loads(err)["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


# A value that breaks a type rule, as a flag and as a file key: (command words,
# flag, its text, file key, the JSON value).  Both exit 2 with the same line.
_BAD_VALUE_CASES = [
    (["simulate"], "--paths", "2.7", "n_paths", 2.7),
    (["rate"], "--which", "Q", "which", "Q"),
    (["check", "slope"], "--functional", "W", "functional", "W"),
    (["estimate"], "--estimator", "x", "estimator", "x"),
    (["simulate"], "--n-steps", "abc", "n_steps", "abc"),
    (["simulate"], "--T", "inf", "T", float("inf")),
    (["figures"], "--fig", "true", "fig", "true"),
]


@pytest.mark.parametrize(
    "command, flag, text, key, value", _BAD_VALUE_CASES, ids=[c[1] for c in _BAD_VALUE_CASES]
)
def test_bad_value_gives_one_error_line_from_flag_or_file(
    capsys, tmp_path, monkeypatch, command, flag, text, key, value
):
    monkeypatch.chdir(tmp_path)
    flags = run(capsys, *command, "--a", "4", "--b", "-1", "--seed", "1", flag, text, "--out", "out")
    file = _run_config(capsys, tmp_path, " ".join(command), {"seed": 1, "out": "out", key: value})
    assert flags == file
    assert flags[:2] == (2, "")
    assert _one_json_line(flags[2])["error"] == "ConfigError"
    assert not (tmp_path / "out").exists()


# Flag text, the JSON value it spells, and what _convert gives for both.  Text
# reads as an int first, so a 64-bit seed stays exact; an integer beyond float
# range reads as 1e400 does.
_BIG = "1" + "0" * 400
_NUMBER_TEXT_CASES = [
    ("n_steps", "37.0", "37.0", 37),
    ("n_steps", "37", "37", 37),
    ("n_paths", "1e3", "1e3", 1000),
    ("seed", "18446744073709551615", "18446744073709551615", 2**64 - 1),
    ("seed", "1.8e19", "1.8e19", 18 * 10**18),
    ("a", "4", "4", 4.0),
    ("x0", "-0", "-0", 0.0),
    ("beta", "-0.0", "-0.0", -0.0),
    ("alpha", "-inf", "-Infinity", -math.inf),
    ("alpha", _BIG, _BIG, math.inf),
    ("out", "007", '"007"', "007"),
    ("n_alpha", "3", '"3"', 3),
]


@pytest.mark.parametrize(
    "key, text, json_text, expected",
    _NUMBER_TEXT_CASES,
    ids=[f"{c[0]} {c[1][:20]}" for c in _NUMBER_TEXT_CASES],
)
def test_flag_text_reads_as_the_json_number_it_spells(key, text, json_text, expected):
    for value in (cli._convert(key, text), cli._convert(key, json.loads(json_text))):
        assert (type(value), repr(value)) == (type(expected), repr(expected))


def test_float_spelt_step_count_writes_the_same_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runs = []
    for k, n_steps in enumerate(("37", "37.0")):
        argv = ["simulate", "--a", "4", "--b", "-1", "--T", "2.5", "--n-steps", n_steps,
                "--paths", "5", "--seed", "7", "--out", "out"]
        rc, out, err = run(capsys, *argv)
        files = {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}
        runs.append((rc, out, err, files))
        Path("out").rename(f"out{k}")
    assert runs[0][0] == 0
    assert len(runs[0][3]) == 5
    assert runs[0] == runs[1]


# Each input check of the cli module, reached through main: (id, argv beyond
# --a 4 --b -1 --out out, config file text or None, its ConfigError message).
# The nested-value check has its own test, test_nested_config_rejected.
_CLI_INPUT_CHECKS = [
    ("unreadable config", ["rate", "--config", "missing.json"], None,
     "cannot read config file 'missing.json'"),
    ("config not JSON", ["rate"], "{", "config file 'c.json' is not valid JSON"),
    ("config not an object", ["rate"], "[1, 2]", "config file 'c.json' must hold a flat JSON"),
    ("list value", ["rate"], '{"T": [1, 2]}', "config key 'T' must be a scalar"),
    ("T_grid number", ["check", "slope"], '{"T_grid": 5}',
     "config key 'T_grid' must be a list or comma string, got 5"),
    ("T_grid non-number", ["check", "slope", "--T-grid", "1,x"], None,
     "config key 'T_grid' holds a non-number: '1,x'"),
    ("T_grid non-positive", ["check", "slope", "--T-grid", "1,-2"], None,
     "config key 'T_grid' must hold positive horizons, got '1,-2'"),
    ("T_grid empty", ["check", "slope"], '{"T_grid": []}',
     "config key 'T_grid' must hold positive horizons, got []"),
    # Each horizon by the float rule: a boolean is no number, and an integer
    # beyond float range reads as inf, which is not a finite horizon.
    ("T_grid boolean", ["check", "slope"], '{"T_grid": [true, 2]}',
     "config key 'T_grid' holds a non-number: [True, 2]"),
    ("T_grid beyond float range", ["check", "slope"], '{"T_grid": [1%s]}' % ("0" * 400),
     "config key 'T_grid' must hold positive horizons, got [1000"),
    ("not a number", ["rate", "--alpha-min", "abc"], None,
     "config key 'alpha_min' must be a number, got 'abc'"),
    ("not finite", ["rate", "--x0", "nan"], None, "config key 'x0' must be finite, got nan"),
    ("T not positive", ["simulate", "--T", "-1", "--seed", "1"], None,
     "config key 'T' must be positive, got -1.0"),
    ("n_steps below 1", ["simulate", "--n-steps", "0", "--seed", "1"], None,
     "config key 'n_steps' must be >= 1, got 0"),
    ("workers below 1", ["figures", "--fig", "3", "--workers", "0"], None,
     "config key 'n_workers' must be >= 1, got 0"),
    # A covariance and a standard error need two paths.
    ("clt one path", ["check", "clt", "--paths", "1", "--seed", "1"], None,
     "config key 'n_paths' must be >= 2, got 1"),
    ("cgf mc one path", ["cgf", "--mc", "--seed", "1"], '{"n_paths": 1}',
     "config key 'n_paths' must be >= 2, got 1"),
    ("grid selector", ["rate", "--which", "S", "--grid"], None,
     "grid evaluation supports which in {J, K, I}, got 'S'"),
    ("grid size", ["rate", "--which", "J", "--grid", "--n-alpha", "1"], None,
     "grid sizes 'n_alpha' and 'n_beta' must be >= 2"),
]


@pytest.mark.parametrize(
    "argv, text, message", [c[1:] for c in _CLI_INPUT_CHECKS], ids=[c[0] for c in _CLI_INPUT_CHECKS]
)
def test_cli_input_checks(capsys, tmp_path, monkeypatch, argv, text, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        Path("c.json").write_text(text)
        argv = [*argv, "--config", "c.json"]
    rc, out, err = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", "out")
    assert (rc, out) == (2, "")
    payload = _one_json_line(err)
    assert payload["error"] == "ConfigError"
    assert payload["message"].startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--T", "1", "--n-steps", "20", "--paths", "2", "--seed", "7"],
        ["check", "infsup"],
    ],
    ids=["simulate", "check infsup"],
)
def test_unwritable_out_exits_2_with_one_json_line(capsys, tmp_path, argv):
    # An --out under a regular file cannot be made; for check, exit 1 would
    # read as a failed suite.
    (tmp_path / "file").write_text("")
    out_dir = str(tmp_path / "file" / "out")
    rc, out, err = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", out_dir)
    assert (rc, out) == (2, "")
    assert _one_json_line(err)["error"] == "NotADirectoryError"


def _never(*args, **kwargs):
    raise AssertionError("ran before --out was made")


@pytest.mark.parametrize(
    "argv, target",
    [
        (["check", "clt", "--T", "2", "--paths", "20", "--seed", "1"], "suite"),
        (["estimate", "--T", "1", "--n-steps", "20", "--paths", "2", "--seed", "7"],
         "simulate_ensemble"),
        (["cgf", "--mc", "--T", "1", "--n-steps", "20", "--paths", "2", "--seed", "7"],
         "cgf_finite_T_mc"),
    ],
    ids=["check clt", "estimate", "cgf --mc"],
)
def test_unwritable_out_fails_before_the_run(capsys, tmp_path, monkeypatch, argv, target):
    # The commands that simulate make --out first, so an --out under a
    # regular file fails before any path is drawn.
    if target == "suite":
        clt = CHECK_SUITES["clt"]
        monkeypatch.setitem(CHECK_SUITES, "clt", functools.wraps(clt)(_never))
    else:
        monkeypatch.setattr(cli, target, _never)
    (tmp_path / "file").write_text("")
    out_dir = str(tmp_path / "file" / "out")
    rc, out, err = run(capsys, *argv, "--a", "4", "--b", "-1", "--out", out_dir)
    assert (rc, out) == (2, "")
    assert _one_json_line(err)["error"] == "NotADirectoryError"


def test_non_finite_values_are_json_strings(capsys, tmp_path):
    ns = cli.build_parser().parse_args(["figures", "--a", "4", "--b", "-1", "--out", str(tmp_path)])
    _, cfg = parse_config(ns)
    inf, nan = float("inf"), float("nan")
    payload = {
        "floats": [inf, -inf, nan, 0.5],
        "array": np.array([1.0, inf, -inf, nan]),
        "numpy scalars": (np.float64(-inf), np.int64(3), np.bool_(True)),
    }
    cli._report(cfg, payload, "r.json")
    written = (tmp_path / "r.json").read_text()
    assert capsys.readouterr().out == written
    assert json.loads(written) == {
        "floats": ["inf", "-inf", "nan", 0.5],
        "array": [1.0, "inf", "-inf", "nan"],
        "numpy scalars": ["-inf", 3, True],
    }
    assert [_fmt_value(v) for v in (inf, -inf, -0.0, 1.5)] == ["inf", "-inf", "0.000000", "1.500000"]
