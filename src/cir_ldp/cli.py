"""Command-line entry point.

Exit codes: 0 success (and every requested check passed), 1 check failure,
2 usage or configuration error, 3 numeric error.  Failures emit a
machine-readable JSON object on stderr.  +inf is encoded as the string
"inf" in both CSV and JSON artifacts, and identical invocations produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._io import csv_text, report, write_text_atomic
from .cgf import CgfPoint, cgf_finite_T_mc, cgf_gradient, cgf_limit
from .cir_model import (
    ProcessParams,
    _map_jobs,
    _time_column,
    _write_csv,
    default_workers,
    path_rng,
    simulate_ensemble,
    simulate_path,
    validate_params,
)
from .errors import CirLdpError, ConfigError, RegimeError
from .functionals import ESTIMATORS, functionals_from_summary
from .harness import (
    CHECK_SUITES,
    FIGURE_WINDOW,
    SLOPE_FUNCTIONALS,
    profile_curves,
    surface_grid,
)
from .rates import (
    rate_I_mle,
    rate_J,
    rate_K,
    rate_S,
    rate_Sigma,
    rate_V,
    rate_marginal,
    rate_pair,
    rate_triplet_L,
    rate_triplet_x,
)

__all__ = ["RunConfig", "build_parser", "dispatch", "main", "parse_config"]

# rate --which selector -> (rate function of (params, *coords), coordinate keys).
_RATE_SELECTORS = {
    "J": (rate_J, ("alpha", "beta")),
    "K": (rate_K, ("alpha", "beta")),
    "I": (rate_I_mle, ("alpha", "beta")),
    **{
        m: (lambda p, v, m=m: rate_marginal(p, m, v), ("alpha" if m[1] == "a" else "beta",))
        for m in ("Ja", "Jb", "Ka", "Kb", "Ia", "Ib")
    },
    "S": (rate_S, ("x",)),
    "Sigma": (rate_Sigma, ("y",)),
    "V": (rate_V, ("v",)),
    "pair": (rate_pair, ("x", "y")),
    "triplet_x": (rate_triplet_x, ("x", "y", "z")),
    "triplet_L": (rate_triplet_L, ("y", "z", "t")),
}

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
        None,
        "worker processes for simulate, estimate, check clt|slope and cgf --mc; "
        "artifacts do not depend on it (default: CIR_LDP_THREADS or 1)",
    ),
    "estimator": (
        "--estimator",
        (*ESTIMATORS, "all"),
        None,
        "estimator selector (estimate: default all; check clt: default mle, "
        "and all is mle, tilde, check)",
    ),
    "which": ("--which", tuple(_RATE_SELECTORS), None, "rate function selector"),
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

# Options every command takes; they are the fields of RunConfig.
_COMMON = ("a", "b", "x0", "T", "n_steps", "n_paths", "seed", "out", "n_workers")


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration shared by every command."""

    a: float
    b: float
    x0: float
    T: float
    n_steps: int
    n_paths: int
    seed: int | None
    out: str
    n_workers: int | None = None
    settings: dict = field(default_factory=dict)

    @property
    def params(self) -> ProcessParams:
        return ProcessParams(self.a, self.b, self.x0)

    @property
    def total_steps(self) -> int:
        """Total grid steps for horizon T at n_steps per unit time."""
        return int(round(self.n_steps * self.T))


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
    try:
        grid = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ConfigError(f"config key 'T_grid' holds a non-number: {value!r}") from None
    if not grid or any(T <= 0.0 or not math.isfinite(T) for T in grid):
        raise ConfigError(f"config key 'T_grid' must hold positive horizons, got {value!r}")
    return grid


def _convert(key: str, value):
    """Turn flag text or a JSON scalar into the type of option ``key``.

    Floats must be finite, except the rate coordinates; integers must be
    integral; switches must be booleans, and only switches take booleans;
    choices must be one of theirs.
    """
    kind = _OPTIONS[key][1]
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
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None
    if kind is float and not math.isfinite(out) and key not in _COORDINATES:
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return out


def _suite_keys(suite: str) -> set[str]:
    """The settings a check suite takes: its keyword-only parameters."""
    return set(inspect.signature(CHECK_SUITES[suite]).parameters) - {"params"}


def parse_config(source) -> RunConfig:
    """Build a validated RunConfig from a flag set or a config file path.

    Precedence is flags > config file > defaults (x0 = 1, 200 steps per unit
    time); every value is converted once, by its option's kind.  The range
    checks on T, n_steps, n_paths and a missing seed apply only where the
    command reads that option.

    Raises
    ------
    ConfigError
        On a missing or malformed key, naming the offending key.
    RegimeError
        From parameter validation.
    """
    if isinstance(source, (str, Path)):
        flags: dict = {"config": str(source)}
    elif isinstance(source, argparse.Namespace):
        flags = {k: v for k, v in vars(source).items() if v is not None}
    elif isinstance(source, dict):
        flags = {k: v for k, v in source.items() if v is not None}
    else:
        raise ConfigError(f"unsupported config source {type(source).__name__!r}")

    merged = {k: opt[2] for k, opt in _OPTIONS.items() if opt[2] is not None}
    if flags.get("config"):
        merged.update(_load_config_file(flags["config"]))
    merged.update({k: v for k, v in flags.items() if k in _OPTIONS})
    for key in ("a", "b"):
        if key not in merged:
            raise ConfigError(f"missing required key {key!r}")
    values = {k: _convert(k, v) for k, v in merged.items()}

    validate_params(values["a"], values["b"], values["x0"])
    # The run options a command reads; only those are range-checked.
    command = flags.get("command")
    if command == "check":
        reads = _suite_keys(flags["suite"])
    elif command in (None, "simulate", "estimate") or (command == "cgf" and values["mc"]):
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
    if "n_paths" in reads and n_paths < 1:
        raise ConfigError(f"config key 'n_paths' must be >= 1, got {n_paths}")

    seed = values.get("seed")
    if seed is None:
        if "seed" in reads:
            raise ConfigError("missing required key 'seed' (this command consumes randomness)")
    elif not 0 <= seed < 2**64:
        raise ConfigError(f"config key 'seed' must be in [0, 2^64), got {seed}")
    n_workers = values.get("n_workers")
    if n_workers is not None and n_workers < 1:
        raise ConfigError(f"config key 'n_workers' must be >= 1, got {n_workers}")

    core = {k: values.pop(k, None) for k in _COMMON}
    # "suite" rides in the settings so dispatch can route `check`; it is a
    # positional argument, not a config-file key.
    if "suite" in flags:
        values["suite"] = flags["suite"]
    return RunConfig(**core, settings=values)


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
        if math.isnan(v):
            return "nan"
        if v == math.inf:
            return "inf"
        if v == -math.inf:
            return "-inf"
        return v
    return obj


def _out_dir(cfg: RunConfig) -> Path:
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write(cfg: RunConfig, name: str, text: str) -> str:
    """Write one artifact atomically into --out; returns its path."""
    path = _out_dir(cfg) / name
    write_text_atomic(path, text)
    return str(path)


def _report(cfg: RunConfig, payload: dict, name: str | None = None) -> None:
    """Print a JSON report, and write it to ``name`` in --out when given."""
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    if name is not None:
        _write(cfg, name, text)
    sys.stdout.write(text)


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _fmt_value(v: float) -> str:
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    s = f"{v:.6f}"
    return "0.000000" if s == "-0.000000" else s


def _require_setting(cfg: RunConfig, key: str, context: str):
    if key not in cfg.settings:
        raise ConfigError(f"missing required key {key!r} for {context}")
    return cfg.settings[key]


def _run_settings(cfg: RunConfig, **extra) -> dict:
    """The report settings of a simulating command."""
    run = {"T": cfg.T, "n_steps": cfg.total_steps, "n_paths": cfg.n_paths, "seed": cfg.seed}
    return {**run, **extra}


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------


def _write_paths(
    params: ProcessParams, T: float, n_steps: int, seed: int, indices: range, out_dir: str
) -> None:
    """Simulate paths ``indices`` of one simulate call and write their CSVs.

    Path i draws from path_rng(seed, i), wherever it runs.  Every path
    shares the grid simulate_path builds from (T, n_steps), so the time
    column is formatted once, from the first path, and reused.
    """
    column = None
    for i in indices:
        traj = simulate_path(params, T, n_steps, path_rng(seed, i))
        if column is None:
            column = _time_column(traj.times)
        _write_csv(str(Path(out_dir) / f"traj_{i:05d}.csv"), column, traj.values)


def _cmd_simulate(cfg: RunConfig) -> int:
    out_dir = _out_dir(cfg)
    n_workers = min(cfg.n_workers or default_workers(), cfg.n_paths)
    # Job w writes paths w, w + n, w + 2n, ...; the files do not depend on n.
    run = (cfg.params, cfg.T, cfg.total_steps, cfg.seed)
    jobs = [(*run, range(w, cfg.n_paths, n_workers), str(out_dir)) for w in range(n_workers)]
    _map_jobs(_write_paths, jobs, n_workers)
    metrics = {"directory": str(out_dir), "pattern": "traj_#####.csv"}
    _report(cfg, report("simulate", cfg.params, _run_settings(cfg), metrics))
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    selector = cfg.settings.get("estimator", "all")
    names = list(ESTIMATORS) if selector == "all" else [selector]
    ens = simulate_ensemble(
        cfg.params, cfg.T, cfg.total_steps, cfg.n_paths, cfg.seed, n_workers=cfg.n_workers
    )
    pf = functionals_from_summary(ens.T, cfg.x0, ens.x_T, ens.S, ens.Sigma)
    columns = []
    for name in names:
        est = ESTIMATORS[name](pf)
        columns.append((name, est.alpha.tolist(), est.beta.tolist()))
    rows = (
        (i, name, alphas[i], betas[i])
        for i in range(cfg.n_paths)
        for name, alphas, betas in columns
    )
    path = _write(cfg, "estimates.csv", csv_text(("path_id", "estimator", "alpha", "beta"), rows))
    metrics = {"file": path, "rows": cfg.n_paths * len(names)}
    _report(cfg, report("estimate", cfg.params, _run_settings(cfg, estimators=names), metrics))
    return 0


def _write_surface(cfg: RunConfig, name: str, **window):
    """Write the (J, K, I) surface over ``window`` to ``name``; returns it and its metrics."""
    grid = surface_grid(cfg.params, **window)
    return grid, {"file": _write(cfg, name, grid.to_csv()), "rows": grid.J.size}


def _cmd_rate(cfg: RunConfig) -> int:
    s = cfg.settings
    which = _require_setting(cfg, "which", "rate")
    if s["grid"]:
        if which not in ("J", "K", "I"):
            raise ConfigError(f"grid evaluation supports which in {{J, K, I}}, got {which!r}")
        if s["n_alpha"] < 2 or s["n_beta"] < 2:
            raise ConfigError("grid sizes 'n_alpha' and 'n_beta' must be >= 2")
        window = {
            "alpha_range": (s["alpha_min"], s["alpha_max"]),
            "beta_range": (s["beta_min"], s["beta_max"]),
            "n_alpha": s["n_alpha"],
            "n_beta": s["n_beta"],
        }
        _, metrics = _write_surface(cfg, f"rate_{which}_grid.csv", **window)
        _report(cfg, report("rate_grid", cfg.params, {"which": which, **window}, metrics))
        return 0
    fn, keys = _RATE_SELECTORS[which]
    coords = [_require_setting(cfg, k, f"rate --which {which}") for k in keys]
    sys.stdout.write(_fmt_value(fn(cfg.params, *coords)) + "\n")
    return 0


def _cmd_cgf(cfg: RunConfig) -> int:
    s = cfg.settings
    coords = [s["lam"], s["mu"], s["nu"], s["gamma"]]
    point = CgfPoint(*coords)
    if s["mc"]:
        estimate, stderr = cgf_finite_T_mc(
            cfg.params, point, cfg.T, cfg.n_paths, cfg.seed,
            n_steps=cfg.total_steps, n_workers=cfg.n_workers,
        )
        limit = cgf_limit(cfg.params, point)
        abs_diff = abs(estimate - limit)
        metrics = {"estimate": estimate, "stderr": stderr, "limit": limit, "abs_diff": abs_diff}
        passed = bool(abs_diff <= 3.0 * stderr + 0.05)
        payload = report("cgf_mc", cfg.params, _run_settings(cfg, point=coords), metrics, passed)
        _report(cfg, payload, "cgf_mc_report.json")
        return 0
    if s["gradient"]:
        grad = cgf_gradient(cfg.params, point)
        sys.stdout.write(" ".join(_fmt_value(g) for g in grad) + "\n")
        return 0
    sys.stdout.write(_fmt_value(cgf_limit(cfg.params, point)) + "\n")
    return 0


def _cmd_check(cfg: RunConfig) -> int:
    suite = cfg.settings["suite"]
    offered = {
        **cfg.settings,
        "T": cfg.T,
        "n_steps": cfg.total_steps,
        "n_paths": cfg.n_paths,
        "seed": cfg.seed,
        "n_workers": cfg.n_workers,
    }
    keys = _suite_keys(suite)
    payload = CHECK_SUITES[suite](cfg.params, **{k: v for k, v in offered.items() if k in keys})
    _report(cfg, payload, f"{suite}_report.json")
    return 0 if payload["pass"] else 1


def _cmd_figures(cfg: RunConfig) -> int:
    fig = _require_setting(cfg, "fig", "figures")
    if fig in (1, 2):
        grid, metrics = _write_surface(cfg, f"fig{fig}.csv")
        metrics["which"] = "J" if fig == 1 else "K"
        metrics["max_shared_branch_diff"] = grid.max_shared_diff(cfg.params)
    elif fig == 3:
        curves = profile_curves(cfg.params)
        metrics = {"file": _write(cfg, "fig3.csv", curves.to_csv()), "rows": len(curves.v)}
    else:
        raise ConfigError(f"config key 'fig' must be 1, 2, or 3, got {fig}")
    _report(cfg, report("figures", cfg.params, {"fig": fig}, metrics))
    return 0


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
    "check": (
        "run a validation suite, exit 0 iff it passes",
        _cmd_check,
        ("estimator", "functional", "c", "T_grid", "tolerance"),
    ),
    "figures": ("emit the figure grids as CSV", _cmd_figures, ("fig",)),
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one command against a validated configuration; returns exit code."""
    try:
        handler = _COMMANDS[command][1]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None
    return handler(cfg)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        # No argparse defaults: an absent flag must not hide a config-file value.
        for dest in (*_COMMON, *own):
            flag, kind, _, option_help = _OPTIONS[dest]
            if kind == "switch":
                how = {"action": "store_const", "const": True}
            elif isinstance(kind, tuple):
                how = {"choices": list(kind)}
            else:
                how = {"type": kind if kind in (float, int) else None}
            p.add_argument(flag, dest=dest, help=option_help, **how)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return dispatch(ns.command, parse_config(ns))
    except (ConfigError, RegimeError) as exc:
        _emit_error(exc)
        return 2
    except (CirLdpError, OverflowError) as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
