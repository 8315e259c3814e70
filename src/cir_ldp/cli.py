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
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from ._io import write_text_atomic
from .cgf import CgfPoint, cgf_finite_T_mc, cgf_gradient, cgf_limit
from .cir_model import (
    ProcessParams,
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
    _param_block,
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

_CORE_DEFAULTS = {
    "x0": 1.0,
    "T": 10.0,
    "n_steps": 200,
    "n_paths": 1000,
    "seed": None,
    "out": ".",
    "n_workers": None,
}

_CORE_KEYS = {"a", "b"} | set(_CORE_DEFAULTS)

# "suite" stays in the merge so dispatch can route `check`; it is not a
# config-file key.
_IGNORED_FLAG_KEYS = {"command", "config"}


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


def _setting_keys() -> set[str]:
    """Config-file keys beyond the core ones: every subcommand's option dests."""
    parser = build_parser()
    (commands,) = (
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    dests = {a.dest for sub in commands.choices.values() for a in sub._actions}
    return dests - {"help", "config", "suite"} - _CORE_KEYS


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
    setting_keys = _setting_keys()
    for key, value in data.items():
        if key not in _CORE_KEYS and key not in setting_keys:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(value, dict):
            raise ConfigError(f"config key {key!r} must be flat, not nested")
        if key == "T_grid":
            continue
        if value is not None and not isinstance(value, (int, float, str, bool)):
            raise ConfigError(f"config key {key!r} must be a scalar")
    return data


def _seed_required(flags: dict) -> bool:
    command = flags.get("command")
    if command in ("simulate", "estimate"):
        return True
    if command == "check":
        return "seed" in _suite_keys(flags["suite"])
    if command == "cgf":
        return bool(flags.get("mc"))
    if command is None:
        return True
    return False


def _coerce_number(key: str, value, kind=float):
    try:
        out = kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"config key {key!r} must be a number, got {value!r}") from None
    if isinstance(out, float) and not math.isfinite(out):
        if key in ("alpha", "beta", "x", "y", "z", "t", "v"):
            return out
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    return out


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


def parse_config(source) -> RunConfig:
    """Build a validated RunConfig from a flag set or a config file path.

    Precedence is flags > config file > defaults (x0 = 1, 200 steps per unit
    time).  The seed is demanded only by commands that consume randomness.

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

    file_vals = _load_config_file(flags["config"]) if flags.get("config") else {}
    merged = dict(_CORE_DEFAULTS)
    merged.update({k: v for k, v in file_vals.items() if v is not None})
    merged.update(
        {k: v for k, v in flags.items() if k not in _IGNORED_FLAG_KEYS}
    )

    for key in ("a", "b"):
        if key not in merged:
            raise ConfigError(f"missing required key {key!r}")
    a = _coerce_number("a", merged.pop("a"))
    b = _coerce_number("b", merged.pop("b"))
    x0 = _coerce_number("x0", merged.pop("x0"))
    validate_params(a, b, x0)

    T = _coerce_number("T", merged.pop("T"))
    if T <= 0.0:
        raise ConfigError(f"config key 'T' must be positive, got {T}")
    n_steps = _coerce_number("n_steps", merged.pop("n_steps"), int)
    if n_steps < 1:
        raise ConfigError(f"config key 'n_steps' must be >= 1, got {n_steps}")
    if round(n_steps * T) < 2:
        raise ConfigError(
            f"n_steps*T = {n_steps * T} gives fewer than 2 grid steps"
        )
    n_paths = _coerce_number("n_paths", merged.pop("n_paths"), int)
    if n_paths < 1:
        raise ConfigError(f"config key 'n_paths' must be >= 1, got {n_paths}")

    seed = merged.pop("seed")
    if seed is None:
        if _seed_required(flags):
            raise ConfigError(
                "missing required key 'seed' (this command consumes randomness)"
            )
    else:
        seed = _coerce_number("seed", seed, int)
        if not 0 <= seed < 2**64:
            raise ConfigError(f"config key 'seed' must be in [0, 2^64), got {seed}")

    out = str(merged.pop("out"))
    n_workers = merged.pop("n_workers")
    if n_workers is not None:
        n_workers = _coerce_number("n_workers", n_workers, int)
        if n_workers < 1:
            raise ConfigError(f"config key 'n_workers' must be >= 1, got {n_workers}")

    settings = {k: v for k, v in merged.items() if v is not None}
    if "T_grid" in settings:
        settings["T_grid"] = _parse_T_grid(settings["T_grid"])
    return RunConfig(
        a=a,
        b=b,
        x0=x0,
        T=T,
        n_steps=n_steps,
        n_paths=n_paths,
        seed=seed,
        out=out,
        n_workers=n_workers,
        settings=settings,
    )


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


def _report_text(payload: dict) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


def _emit_report(cfg: RunConfig, name: str, payload: dict) -> None:
    text = _report_text(payload)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(out_dir / name, text)
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


def _require_setting(cfg: RunConfig, key: str, context: str) -> float:
    if key not in cfg.settings:
        raise ConfigError(f"missing required key {key!r} for {context}")
    return _coerce_number(key, cfg.settings[key])


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
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_workers = min(cfg.n_workers or default_workers(), cfg.n_paths)
    # Job w writes paths w, w + n, w + 2n, ...; the files do not depend on n.
    run = (cfg.params, cfg.T, cfg.total_steps, cfg.seed)
    jobs = [(*run, range(w, cfg.n_paths, n_workers), str(out_dir)) for w in range(n_workers)]
    if n_workers == 1:
        _write_paths(*jobs[0])
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(n_workers, mp_context=spawn) as pool:
            list(pool.map(_write_paths, *zip(*jobs)))
    payload = {
        "experiment": "simulate",
        "params": _param_block(cfg.params),
        "settings": {
            "T": cfg.T,
            "n_steps": cfg.total_steps,
            "n_paths": cfg.n_paths,
            "seed": cfg.seed,
        },
        "metrics": {"directory": str(out_dir), "pattern": "traj_#####.csv"},
        "pass": True,
    }
    sys.stdout.write(_report_text(payload))
    return 0


def _cmd_estimate(cfg: RunConfig) -> int:
    selector = cfg.settings.get("estimator", "all")
    if selector == "all":
        names = list(ESTIMATORS)
    elif selector in ESTIMATORS:
        names = [selector]
    else:
        raise ConfigError(
            f"config key 'estimator' must be one of "
            f"{sorted(ESTIMATORS) + ['all']}, got {selector!r}"
        )
    ens = simulate_ensemble(
        cfg.params,
        cfg.T,
        cfg.total_steps,
        cfg.n_paths,
        cfg.seed,
        n_workers=cfg.n_workers,
    )
    pf = functionals_from_summary(ens.T, cfg.x0, ens.x_T, ens.S, ens.Sigma)
    # Plain floats, so repr gives the shortest round-trip text.
    columns = []
    for name in names:
        est = ESTIMATORS[name](pf)
        columns.append((name, est.alpha.tolist(), est.beta.tolist()))
    lines = ["path_id,estimator,alpha,beta"]
    lines.extend(
        f"{i},{name},{alphas[i]!r},{betas[i]!r}"
        for i in range(cfg.n_paths)
        for name, alphas, betas in columns
    )
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "estimates.csv"
    write_text_atomic(csv_path, "\n".join(lines) + "\n")
    payload = {
        "experiment": "estimate",
        "params": _param_block(cfg.params),
        "settings": {
            "T": cfg.T,
            "n_steps": cfg.total_steps,
            "n_paths": cfg.n_paths,
            "seed": cfg.seed,
            "estimators": names,
        },
        "metrics": {"file": str(csv_path), "rows": cfg.n_paths * len(names)},
        "pass": True,
    }
    sys.stdout.write(_report_text(payload))
    return 0


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


def _rate_point(cfg: RunConfig, which: str) -> float:
    try:
        fn, keys = _RATE_SELECTORS[which]
    except KeyError:
        raise ConfigError(f"unknown rate selector {which!r}") from None
    coords = [_require_setting(cfg, k, f"rate --which {which}") for k in keys]
    return fn(cfg.params, *coords)


def _grid_window(cfg: RunConfig) -> tuple[tuple[float, float], tuple[float, float], int, int]:
    s = cfg.settings
    (al_lo, al_hi), (be_lo, be_hi), n_al, n_be = FIGURE_WINDOW
    al_lo = _coerce_number("alpha_min", s.get("alpha_min", al_lo))
    al_hi = _coerce_number("alpha_max", s.get("alpha_max", al_hi))
    be_lo = _coerce_number("beta_min", s.get("beta_min", be_lo))
    be_hi = _coerce_number("beta_max", s.get("beta_max", be_hi))
    n_al = _coerce_number("n_alpha", s.get("n_alpha", n_al), int)
    n_be = _coerce_number("n_beta", s.get("n_beta", n_be), int)
    if n_al < 2 or n_be < 2:
        raise ConfigError("grid sizes 'n_alpha' and 'n_beta' must be >= 2")
    return (al_lo, al_hi), (be_lo, be_hi), n_al, n_be


def _cmd_rate(cfg: RunConfig) -> int:
    which = cfg.settings.get("which")
    if which is None:
        raise ConfigError("missing required key 'which' for rate")
    if cfg.settings.get("grid"):
        if which not in ("J", "K", "I"):
            raise ConfigError(
                f"grid evaluation supports which in {{J, K, I}}, got {which!r}"
            )
        (al_rng, be_rng, n_al, n_be) = _grid_window(cfg)
        grid = surface_grid(
            cfg.params,
            alpha_range=al_rng,
            beta_range=be_rng,
            n_alpha=n_al,
            n_beta=n_be,
        )
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"rate_{which}_grid.csv"
        write_text_atomic(csv_path, grid.to_csv())
        payload = {
            "experiment": "rate_grid",
            "params": _param_block(cfg.params),
            "settings": {
                "which": which,
                "alpha_range": list(al_rng),
                "beta_range": list(be_rng),
                "n_alpha": n_al,
                "n_beta": n_be,
            },
            "metrics": {"file": str(csv_path), "rows": n_al * n_be},
            "pass": True,
        }
        sys.stdout.write(_report_text(payload))
        return 0
    value = _rate_point(cfg, which)
    sys.stdout.write(_fmt_value(value) + "\n")
    return 0


def _cmd_cgf(cfg: RunConfig) -> int:
    s = cfg.settings
    point = CgfPoint(
        _coerce_number("lam", s.get("lam", 0.0)),
        _coerce_number("mu", s.get("mu", 0.0)),
        _coerce_number("nu", s.get("nu", 0.0)),
        _coerce_number("gamma", s.get("gamma", 0.0)),
    )
    if s.get("mc"):
        estimate, stderr = cgf_finite_T_mc(
            cfg.params,
            point,
            cfg.T,
            cfg.n_paths,
            cfg.seed,
            n_steps=cfg.total_steps,
            n_workers=cfg.n_workers,
        )
        limit = cgf_limit(cfg.params, point)
        abs_diff = abs(estimate - limit)
        payload = {
            "experiment": "cgf_mc",
            "params": _param_block(cfg.params),
            "settings": {
                "point": [point.lam, point.mu, point.nu, point.gamma],
                "T": cfg.T,
                "n_steps": cfg.total_steps,
                "n_paths": cfg.n_paths,
                "seed": cfg.seed,
            },
            "metrics": {
                "estimate": estimate,
                "stderr": stderr,
                "limit": limit,
                "abs_diff": abs_diff,
            },
            "pass": bool(abs_diff <= 3.0 * stderr + 0.05),
        }
        _emit_report(cfg, "cgf_mc_report.json", payload)
        return 0
    if s.get("gradient"):
        grad = cgf_gradient(cfg.params, point)
        sys.stdout.write(" ".join(_fmt_value(g) for g in grad) + "\n")
        return 0
    sys.stdout.write(_fmt_value(cgf_limit(cfg.params, point)) + "\n")
    return 0


def _suite_keys(suite: str) -> set[str]:
    """The settings a check suite takes: its keyword-only parameters."""
    return set(inspect.signature(CHECK_SUITES[suite]).parameters) - {"params"}


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
    settings = {k: v for k, v in offered.items() if k in keys}
    for key in ("tolerance", "c"):
        if key in settings:
            settings[key] = _coerce_number(key, settings[key])
    payload = CHECK_SUITES[suite](cfg.params, **settings)
    _emit_report(cfg, f"{suite}_report.json", payload)
    return 0 if payload["pass"] else 1


def _cmd_figures(cfg: RunConfig) -> int:
    fig = _coerce_number("fig", _require_setting(cfg, "fig", "figures"), int)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict
    if fig in (1, 2):
        which = "J" if fig == 1 else "K"
        grid = surface_grid(cfg.params)
        csv_path = out_dir / f"fig{fig}.csv"
        write_text_atomic(csv_path, grid.to_csv())
        metrics = {
            "file": str(csv_path),
            "rows": grid.J.size,
            "which": which,
            "max_shared_branch_diff": grid.max_shared_diff(cfg.params),
        }
    elif fig == 3:
        curves = profile_curves(cfg.params)
        csv_path = out_dir / "fig3.csv"
        write_text_atomic(csv_path, curves.to_csv())
        metrics = {"file": str(csv_path), "rows": len(curves.v)}
    else:
        raise ConfigError(f"config key 'fig' must be 1, 2, or 3, got {fig}")
    payload = {
        "experiment": "figures",
        "params": _param_block(cfg.params),
        "settings": {"fig": fig},
        "metrics": metrics,
        "pass": True,
    }
    sys.stdout.write(_report_text(payload))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "rate": _cmd_rate,
    "cgf": _cmd_cgf,
    "check": _cmd_check,
    "figures": _cmd_figures,
}


def dispatch(command: str, cfg: RunConfig) -> int:
    """Run one command against a validated configuration; returns exit code."""
    try:
        handler = _COMMANDS[command]
    except KeyError:
        raise ConfigError(f"unknown command {command!r}") from None
    return handler(cfg)


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file (flags override it)")
    p.add_argument("--a", type=float, help="drift level a (regime a > 2)")
    p.add_argument("--b", type=float, help="drift slope b (regime b < 0)")
    p.add_argument("--x0", type=float, help="starting point (default 1)")
    p.add_argument("--T", type=float, help="time horizon (default 10)")
    p.add_argument(
        "--n-steps",
        dest="n_steps",
        type=int,
        help="grid steps per unit time (default 200)",
    )
    p.add_argument(
        "--paths", dest="n_paths", type=int, help="number of paths (default 1000)"
    )
    p.add_argument("--seed", type=int, help="master seed (64-bit unsigned)")
    p.add_argument("--out", help="output directory for artifacts (default .)")
    p.add_argument(
        "--workers",
        dest="n_workers",
        type=int,
        help=(
            "worker processes for simulate, estimate, check clt|slope and "
            "cgf --mc; artifacts do not depend on it "
            "(default: CIR_LDP_THREADS or 1)"
        ),
    )


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

    p = sub.add_parser("simulate", help="write exact trajectory CSVs")
    _add_common(p)

    p = sub.add_parser("estimate", help="write per-path estimator CSV")
    _add_common(p)
    p.add_argument(
        "--estimator",
        choices=[*ESTIMATORS, "all"],
        help="estimator selector (default all)",
    )

    p = sub.add_parser("rate", help="evaluate rate functions at points or grids")
    _add_common(p)
    p.add_argument(
        "--which",
        choices=list(_RATE_SELECTORS),
        help="rate function selector",
    )
    p.add_argument("--alpha", type=float, help="alpha coordinate")
    p.add_argument("--beta", type=float, help="beta coordinate")
    p.add_argument("--x", type=float, help="x coordinate")
    p.add_argument("--y", type=float, help="y coordinate")
    p.add_argument("--z", type=float, help="z coordinate")
    p.add_argument("--t", type=float, help="t coordinate")
    p.add_argument("--v", type=float, help="v coordinate")
    p.add_argument(
        "--grid",
        action="store_const",
        const=True,
        help="evaluate a (J, K, I) surface grid instead of a point",
    )
    p.add_argument("--alpha-min", dest="alpha_min", type=float)
    p.add_argument("--alpha-max", dest="alpha_max", type=float)
    p.add_argument("--beta-min", dest="beta_min", type=float)
    p.add_argument("--beta-max", dest="beta_max", type=float)
    p.add_argument("--n-alpha", dest="n_alpha", type=int)
    p.add_argument("--n-beta", dest="n_beta", type=int)

    p = sub.add_parser("cgf", help="evaluate the limiting CGF, gradient, or MC")
    _add_common(p)
    p.add_argument("--lam", type=float, help="lambda coordinate (default 0)")
    p.add_argument("--mu", type=float, help="mu coordinate (default 0)")
    p.add_argument("--nu", type=float, help="nu coordinate (default 0)")
    p.add_argument("--gamma", type=float, help="gamma coordinate (default 0)")
    p.add_argument(
        "--gradient",
        action="store_const",
        const=True,
        help="print the gradient instead of the value",
    )
    p.add_argument(
        "--mc",
        action="store_const",
        const=True,
        help="estimate the finite-T CGF by Monte Carlo",
    )

    p = sub.add_parser("check", help="run a validation suite, exit 0 iff it passes")
    p.add_argument("suite", choices=list(CHECK_SUITES))
    _add_common(p)
    p.add_argument(
        "--estimator",
        choices=[*ESTIMATORS, "all"],
        help="clt suite: estimator selector (default mle; all is mle, tilde, check)",
    )
    p.add_argument(
        "--functional",
        choices=list(SLOPE_FUNCTIONALS),
        help="slope suite: path functional (default S)",
    )
    p.add_argument("--c", type=float, help="slope suite: tail threshold")
    p.add_argument(
        "--T-grid",
        dest="T_grid",
        help="slope suite: comma-separated horizons (default 5,10,20)",
    )
    p.add_argument("--tolerance", type=float, help="suite tolerance override")

    p = sub.add_parser("figures", help="emit the figure grids as CSV")
    _add_common(p)
    p.add_argument("--fig", type=int, help="figure number: 1, 2, or 3")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = parse_config(ns)
    except (ConfigError, RegimeError) as exc:
        _emit_error(exc)
        return 2
    except CirLdpError as exc:
        _emit_error(exc)
        return 3
    try:
        return dispatch(ns.command, cfg)
    except (ConfigError, RegimeError) as exc:
        _emit_error(exc)
        return 2
    except (CirLdpError, OverflowError) as exc:
        _emit_error(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
