"""Command-line entry point.

argparse only splits argv: ``_convert`` types each value, from a flag or a
config file, by the same rules.  What a command offers comes from the
library: ``rate --which`` from ``rates.RATES``, ``check``'s flags from the
suites' keyword-only parameters, and a run's total steps from
``cir_model._steps_for``.  Exit codes: 0 success (and every requested
check passed), 1 check failure, 2 usage, configuration or I/O error, 3 numeric
error; every failure prints one JSON line on stderr.  +inf is "inf" in CSV and
JSON artifacts, and identical invocations produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._elementwise import _real
from ._io import csv_text, report, write_text_atomic
from .cgf import CgfPoint, cgf_finite_T_mc, cgf_gradient, cgf_limit
from .cir_model import (
    ProcessParams,
    _SAMPLE_PATHS,
    _map_jobs,
    _steps_for,
    path_rng,
    simulate_ensemble,
    simulate_path,
    write_trajectory_csv,
)
from .errors import CirLdpError, ConfigError, RegimeError
from .functionals import ESTIMATORS
from .harness import (
    CHECK_SUITES,
    FIGURE_WINDOW,
    SLOPE_FUNCTIONALS,
    profile_curves,
    surface_grid,
)
from .rates import RATES

__all__ = ["build_parser", "main", "parse_config"]

# Float options that may be infinite or NaN: the rate coordinates.
_COORDINATES = ("alpha", "beta", "x", "y", "z", "t", "v")

# Every option, by dest: (flag, kind, default, help).  The dest is also its
# config-file key.  kind is float, int, str, a tuple of choices, "switch" (a
# valueless flag; a JSON boolean in a file) or "T_grid" (horizons as a list
# or a comma string).  A default of None leaves the option unset.
_OPTIONS = {
    "a": ("--a", float, None, "drift level a (regime a > 2)"),
    "b": ("--b", float, None, "drift slope b (regime b < 0)"),
    "x0": ("--x0", float, 1.0, "starting point (default 1)"),
    "T": ("--T", float, 10.0, "time horizon (default 10)"),
    "n_steps": ("--n-steps", int, 200, "grid steps per unit time (default 200)"),
    "n_paths": ("--paths", int, 1000, "number of paths (default 1000)"),
    "seed": ("--seed", int, None, "master seed (64-bit unsigned)"),
    "out": ("--out", str, ".", "output directory for artifacts (default .)"),
    "n_workers": (
        "--workers",
        int,
        1,
        "worker processes for simulate, estimate, check clt|slope and cgf --mc; "
        "artifacts do not depend on it (default 1)",
    ),
    "estimator": (
        "--estimator",
        (*ESTIMATORS, "all"),
        None,
        "estimator selector (estimate: default all; check clt: default mle, "
        "and all is mle, tilde, check)",
    ),
    "which": ("--which", tuple(RATES), None, "rate function selector"),
    **{k: (f"--{k}", float, None, f"{k} coordinate") for k in _COORDINATES},
    "grid": ("--grid", "switch", False, "evaluate a (J, K, I) surface grid instead of a point"),
    "alpha_min": ("--alpha-min", float, FIGURE_WINDOW[0][0], None),
    "alpha_max": ("--alpha-max", float, FIGURE_WINDOW[0][1], None),
    "beta_min": ("--beta-min", float, FIGURE_WINDOW[1][0], None),
    "beta_max": ("--beta-max", float, FIGURE_WINDOW[1][1], None),
    "n_alpha": ("--n-alpha", int, FIGURE_WINDOW[2], None),
    "n_beta": ("--n-beta", int, FIGURE_WINDOW[3], None),
    "lam": ("--lam", float, 0.0, "lambda coordinate (default 0)"),
    "mu": ("--mu", float, 0.0, "mu coordinate (default 0)"),
    "nu": ("--nu", float, 0.0, "nu coordinate (default 0)"),
    "gamma": ("--gamma", float, 0.0, "gamma coordinate (default 0)"),
    "gradient": ("--gradient", "switch", False, "print the gradient instead of the value"),
    "mc": ("--mc", "switch", False, "estimate the finite-T CGF by Monte Carlo"),
    "functional": (
        "--functional",
        tuple(SLOPE_FUNCTIONALS),
        None,
        "slope suite: path functional (default S)",
    ),
    "c": ("--c", float, None, "slope suite: tail threshold"),
    "T_grid": (
        "--T-grid",
        "T_grid",
        None,
        "slope suite: comma-separated horizons (default 5,10,20)",
    ),
    "tolerance": ("--tolerance", float, None, "suite tolerance override"),
    "fig": ("--fig", int, None, "figure number: 1, 2, or 3"),
}

# Options every command takes.
_COMMON = ("a", "b", "x0", "T", "n_steps", "n_paths", "seed", "out", "n_workers")


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a flat JSON object")
    for key, value in data.items():
        if key not in _OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be flat, not nested")
        if isinstance(value, list) and key != "T_grid":
            raise ConfigError(f"config key {key!r} must be a scalar")
    return {k: v for k, v in data.items() if v is not None}


def _parse_T_grid(value) -> tuple[float, ...]:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip()]
    elif isinstance(value, (list, tuple)):
        parts = list(value)
    else:
        raise ConfigError(f"config key 'T_grid' must be a list or comma string, got {value!r}")
    # Each horizon is read by the float rule: a boolean is no number, text is
    # the number it spells, and an integer beyond float range is inf.
    try:
        grid = tuple(_convert("T_grid", p, float) for p in parts)
    except ConfigError:
        raise ConfigError(f"config key 'T_grid' holds a non-number: {value!r}") from None
    if not grid or any(not 0.0 < T < math.inf for T in grid):
        raise ConfigError(f"config key 'T_grid' must hold positive horizons, got {value!r}")
    return grid


def _convert(key: str, value, kind=None):
    """Turn flag text or a JSON scalar into the type of option ``key``.

    A number option reads text as the number it spells; then floats must be
    finite, except the rate coordinates; integers must be integral; switches,
    and only switches, take booleans; choices must be one of theirs.  ``kind``
    overrides the option's kind for an item of a list option, whose range
    the list's parser checks.
    """
    declared = _OPTIONS[key][1]
    kind = declared if kind is None else kind
    if kind == "T_grid":
        return _parse_T_grid(value)
    if kind == "switch":
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool):
        raise ConfigError(f"config key {key!r} takes no true or false, got {value!r}")
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"config key {key!r} must be one of {list(kind)}, got {value!r}")
        return value
    if kind in (int, float) and isinstance(value, str):
        for read in (int, float):  # int first: 64-bit seeds stay exact
            with contextlib.suppress(ValueError):
                value = read(value)
                break
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    try:  # an integer beyond float range reads as 1e400 does
        out = _real(value) if kind is float else kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None
    if declared is float and not math.isfinite(out) and key not in _COORDINATES:
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return out


def _suite_keys(suite: str) -> tuple[str, ...]:
    """The settings a check suite takes: its keyword-only parameters."""
    parameters = inspect.signature(CHECK_SUITES[suite]).parameters.values()
    return tuple(p.name for p in parameters if p.kind is p.KEYWORD_ONLY)


def parse_config(ns: argparse.Namespace) -> tuple[ProcessParams, dict]:
    """The process parameters and every option's value, from parsed flags.

    Precedence is flags > config file > defaults (x0 = 1, 200 steps per unit
    time); every value is converted once, by its option's kind, and the
    values are keyed by option dest (``check`` adds its ``suite``).  The
    range checks on T, n_steps, n_paths and a missing seed apply only where
    the command reads that option.

    Raises
    ------
    ConfigError
        On a missing or malformed key, naming the offending key.
    RegimeError
        From parameter validation.
    """
    flags = {k: v for k, v in vars(ns).items() if v is not None}
    merged = {k: opt[2] for k, opt in _OPTIONS.items() if opt[2] is not None}
    if flags.get("config"):
        merged.update(_load_config_file(flags["config"]))
    merged.update({k: v for k, v in flags.items() if k in _OPTIONS})
    for key in ("a", "b"):
        if key not in merged:
            raise ConfigError(f"missing required key {key!r}")
    values = {k: _convert(k, v) for k, v in merged.items()}

    params = ProcessParams(values["a"], values["b"], values["x0"])
    # The run options a command reads; only those are range-checked.
    command = ns.command
    if command == "check":
        reads = _suite_keys(ns.suite)
        values["suite"] = ns.suite
    elif command in ("simulate", "estimate") or (command == "cgf" and values["mc"]):
        reads = {"T", "n_steps", "n_paths", "seed"}
    else:
        reads = set()
    T, n_steps, n_paths = values["T"], values["n_steps"], values["n_paths"]
    if "T" in reads and T <= 0.0:
        raise ConfigError(f"config key 'T' must be positive, got {T}")
    if "n_steps" in reads and n_steps < 1:
        raise ConfigError(f"config key 'n_steps' must be >= 1, got {n_steps}")
    if "n_steps" in reads and round(n_steps * T) < 2:
        raise ConfigError(f"n_steps*T = {n_steps * T} gives fewer than 2 grid steps")
    # A covariance (check clt) or a standard error (cgf --mc) takes more paths.
    least = _SAMPLE_PATHS if command == "cgf" or values.get("suite") == "clt" else 1
    if "n_paths" in reads and n_paths < least:
        raise ConfigError(f"config key 'n_paths' must be >= {least}, got {n_paths}")

    seed = values.get("seed")
    if seed is None:
        if "seed" in reads:
            raise ConfigError("missing required key 'seed' (this command consumes randomness)")
    elif not 0 <= seed < 2**64:
        raise ConfigError(f"config key 'seed' must be in [0, 2^64), got {seed}")
    if values["n_workers"] < 1:
        raise ConfigError(f"config key 'n_workers' must be >= 1, got {values['n_workers']}")
    return params, values


# ---------------------------------------------------------------------------
# Serialization helpers.
# ---------------------------------------------------------------------------


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)  # nan, inf and -inf as words
    return obj


def _out_dir(cfg: dict) -> Path:
    # simulate, estimate, check and cgf --mc call this first, so an --out
    # that cannot be made fails before their run.
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write(cfg: dict, name: str, text: str) -> str:
    """Write one artifact atomically into --out; returns its path."""
    path = _out_dir(cfg) / name
    write_text_atomic(path, text)
    return str(path)


def _report(cfg: dict, payload: dict, name: str | None = None) -> None:
    """Print a JSON report, and write it to ``name`` in --out when given."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if name is not None:
        _write(cfg, name, text)
    sys.stdout.write(text)


def _fmt_value(v: float) -> str:
    s = f"{v:.6f}"  # inf, -inf and nan are those words
    return "0.000000" if s == "-0.000000" else s


def _require(cfg: dict, key: str, context: str):
    if key not in cfg:
        raise ConfigError(f"missing required key {key!r} for {context}")
    return cfg[key]


def _run_settings(cfg: dict, **extra) -> dict:
    """The report settings of a simulating command; n_steps is the grid's total."""
    n_steps = _steps_for(cfg["T"], cfg["n_steps"])
    run = {"T": cfg["T"], "n_steps": n_steps, "n_paths": cfg["n_paths"], "seed": cfg["seed"]}
    return {**run, **extra}


# ---------------------------------------------------------------------------
# Command handlers: each takes the process parameters and the option values.
# ---------------------------------------------------------------------------


def _write_paths(
    params: ProcessParams, T: float, n_steps: int, seed: int, indices: range, out_dir: str
) -> None:
    """Simulate paths ``indices`` of one simulate call and write their CSVs.

    Path i draws from path_rng(seed, i), wherever it runs.  The paths share
    one grid, whose time column csv_text formats once per process.
    """
    for i in indices:
        traj = simulate_path(params, T, n_steps, path_rng(seed, i))
        write_trajectory_csv(traj, str(Path(out_dir) / f"traj_{i:05d}.csv"))


def _cmd_simulate(params: ProcessParams, cfg: dict) -> int:
    out_dir = _out_dir(cfg)
    settings = _run_settings(cfg)
    n_paths = cfg["n_paths"]
    n_workers = min(cfg["n_workers"], n_paths)
    # Job w writes paths w, w + n, w + 2n, ...; the files do not depend on n.
    run = (params, cfg["T"], settings["n_steps"], cfg["seed"])
    jobs = [(*run, range(w, n_paths, n_workers), str(out_dir)) for w in range(n_workers)]
    _map_jobs(_write_paths, jobs, n_workers)
    metrics = {"directory": str(out_dir), "pattern": "traj_#####.csv"}
    _report(cfg, report("simulate", params, settings, metrics))
    return 0


def _cmd_estimate(params: ProcessParams, cfg: dict) -> int:
    _out_dir(cfg)
    selector = cfg.get("estimator", "all")
    names = list(ESTIMATORS) if selector == "all" else [selector]
    settings = _run_settings(cfg, estimators=names)
    n_paths = cfg["n_paths"]
    ens = simulate_ensemble(
        params, cfg["T"], settings["n_steps"], n_paths, cfg["seed"], n_workers=cfg["n_workers"]
    )
    # One row per path and estimator, path outermost.
    ests = [ESTIMATORS[name](ens) for name in names]
    alpha, beta = np.stack([(e.alpha, e.beta) for e in ests], axis=2).reshape(2, -1)
    columns = (np.repeat(np.arange(n_paths), len(names)), names * n_paths, alpha, beta)
    text = csv_text(("path_id", "estimator", "alpha", "beta"), columns)
    metrics = {"file": _write(cfg, "estimates.csv", text), "rows": n_paths * len(names)}
    _report(cfg, report("estimate", params, settings, metrics))
    return 0


def _write_surface(params: ProcessParams, cfg: dict, name: str, **window):
    """Write the (J, K, I) surface over ``window`` to ``name``; returns it and its metrics."""
    grid = surface_grid(params, **window)
    return grid, {"file": _write(cfg, name, grid.to_csv()), "rows": grid.J.size}


def _cmd_rate(params: ProcessParams, cfg: dict) -> int:
    which = _require(cfg, "which", "rate")
    if cfg["grid"]:
        if which not in ("J", "K", "I"):
            raise ConfigError(f"grid evaluation supports which in {{J, K, I}}, got {which!r}")
        if cfg["n_alpha"] < 2 or cfg["n_beta"] < 2:
            raise ConfigError("grid sizes 'n_alpha' and 'n_beta' must be >= 2")
        window = {
            "alpha_range": (cfg["alpha_min"], cfg["alpha_max"]),
            "beta_range": (cfg["beta_min"], cfg["beta_max"]),
            "n_alpha": cfg["n_alpha"],
            "n_beta": cfg["n_beta"],
        }
        _, metrics = _write_surface(params, cfg, f"rate_{which}_grid.csv", **window)
        _report(cfg, report("rate_grid", params, {"which": which, **window}, metrics))
        return 0
    rate, keys = RATES[which]
    coords = [_require(cfg, k, f"rate --which {which}") for k in keys]
    sys.stdout.write(_fmt_value(rate(params, *coords)) + "\n")
    return 0


def _cmd_cgf(params: ProcessParams, cfg: dict) -> int:
    coords = [cfg["lam"], cfg["mu"], cfg["nu"], cfg["gamma"]]
    point = CgfPoint(*coords)
    if cfg["mc"]:
        _out_dir(cfg)
        settings = _run_settings(cfg, point=coords)
        estimate, stderr = cgf_finite_T_mc(
            params, point, cfg["T"], cfg["n_paths"], cfg["seed"],
            n_steps=settings["n_steps"], n_workers=cfg["n_workers"],
        )
        limit = cgf_limit(params, point)
        abs_diff = abs(estimate - limit)
        metrics = {"estimate": estimate, "stderr": stderr, "limit": limit, "abs_diff": abs_diff}
        passed = bool(abs_diff <= 3.0 * stderr + 0.05)
        _report(cfg, report("cgf_mc", params, settings, metrics, passed), "cgf_mc_report.json")
        return 0
    if cfg["gradient"]:
        grad = cgf_gradient(params, point)
        sys.stdout.write(" ".join(_fmt_value(g) for g in grad) + "\n")
        return 0
    sys.stdout.write(_fmt_value(cgf_limit(params, point)) + "\n")
    return 0


def _cmd_check(params: ProcessParams, cfg: dict) -> int:
    _out_dir(cfg)
    suite = cfg["suite"]
    keys = _suite_keys(suite)
    # The values the suite's parameters name; n_steps is the grid's total,
    # counted only for a suite that takes it, so an unread T stays unchecked.
    settings = {k: cfg[k] for k in keys if k in cfg}
    if "n_steps" in keys:
        settings["n_steps"] = _steps_for(cfg["T"], cfg["n_steps"])
    payload = CHECK_SUITES[suite](params, **settings)
    _report(cfg, payload, f"{suite}_report.json")
    return 0 if payload["pass"] else 1


def _cmd_figures(params: ProcessParams, cfg: dict) -> int:
    fig = _require(cfg, "fig", "figures")
    if fig in (1, 2):
        grid, metrics = _write_surface(params, cfg, f"fig{fig}.csv")
        metrics["which"] = "J" if fig == 1 else "K"
        metrics["max_shared_branch_diff"] = grid.max_shared_diff(params)
    elif fig == 3:
        curves = profile_curves(params)
        metrics = {"file": _write(cfg, "fig3.csv", curves.to_csv()), "rows": len(curves.v)}
    else:
        raise ConfigError(f"config key 'fig' must be 1, 2, or 3, got {fig}")
    _report(cfg, report("figures", params, {"fig": fig}, metrics))
    return 0


def _check_options() -> tuple[str, ...]:
    """check's own options: the suites' keyword-only parameters, in _OPTIONS order."""
    taken = {k for suite in CHECK_SUITES for k in _suite_keys(suite)}
    return tuple(k for k in _OPTIONS if k in taken and k not in _COMMON)


# command -> (help, handler, its own options beyond _COMMON).
_COMMANDS = {
    "simulate": ("write exact trajectory CSVs", _cmd_simulate, ()),
    "estimate": ("write per-path estimator CSV", _cmd_estimate, ("estimator",)),
    "rate": (
        "evaluate rate functions at points or grids",
        _cmd_rate,
        ("which", *_COORDINATES, "grid",
         "alpha_min", "alpha_max", "beta_min", "beta_max", "n_alpha", "n_beta"),
    ),
    "cgf": (
        "evaluate the limiting CGF, gradient, or MC",
        _cmd_cgf,
        ("lam", "mu", "nu", "gamma", "gradient", "mc"),
    ),
    "check": ("run a validation suite, exit 0 iff it passes", _cmd_check, _check_options()),
    "figures": ("emit the figure grids as CSV", _cmd_figures, ("fig",)),
}


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a syntax error prints as one JSON line, as any ConfigError
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cir-ldp",
        description=(
            "Exact simulation, drift estimation, and large-deviation rate "
            "functions for the squared radial Ornstein-Uhlenbeck process."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, _, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        if command == "check":
            p.add_argument("suite", choices=list(CHECK_SUITES))
        p.add_argument("--config", help="flat JSON config file (flags override it)")
        # Text only, no defaults: an absent flag must not hide a config-file value.
        for dest in (*_COMMON, *own):
            flag, kind, _, option_help = _OPTIONS[dest]
            how = {"action": "store_const", "const": True} if kind == "switch" else {}
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else None
            p.add_argument(flag, dest=dest, help=option_help, metavar=metavar, **how)
    return parser


# main's parser, built once per process: parse_args keeps no state.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        return _COMMANDS[ns.command][1](*parse_config(ns))
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except (CirLdpError, OSError, OverflowError) as exc:
        # One JSON line; exit 2 for usage, configuration and I/O errors, 3 for numeric ones.
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 2 if isinstance(exc, (ConfigError, RegimeError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
