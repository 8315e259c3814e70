"""The four benchmark workloads and the correctness check of every op.

Each workload turns a seed into a deterministic schedule of rounds; a round is
a fixed amount of work (its time is one ``cpu_s`` and one ``wall_s`` sample)
made of ops (one path, one cross-check point, one C5 marginal grid, or one
ensemble call weighted by its path count).  Inputs are plain tuples so the
self-test can compare schedules.

The package is always reached through module attributes (``cir_model.
simulate_ensemble``, ``harness.clt_experiments`` ...), never through names
bound here at import, so the traced run's wrappers see the benchmark's own
calls as well as the calls between layers.

Every check holds for any exact sampler whatever its random stream; the
finite-horizon C8/C9/C10 tolerances are recorded as diagnostics only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cir_ldp import cgf, cir_model, cli, functionals, harness, rates

P44 = cir_model.ProcessParams(4.0, -1.0)
N_WORKERS = 1

# Grids of the acceptance criteria, restated here so the benchmark does not
# depend on where the package keeps them.
C3_PAIR_X = tuple(float(v) for v in np.linspace(1.5, 6.0, 20))
C3_PAIR_Y = tuple(float(v) for v in np.linspace(0.8, 3.0, 20))
C3_QUAD = {
    "x": (0.0, 0.3, 0.8, 1.5, 2.5),
    "t": (0.0, -0.2, -0.5, -1.0, -1.6),
    "y": (2.0, 3.0, 4.0, 5.0, 6.0),
    "z": (0.6, 0.8, 1.0, 1.3, 1.7),
}
C4_POINTS = (
    (2.5, -0.5), (2.5, -2.0), (3.0, -1.0), (3.0, -3.0), (3.5, -0.7),
    (4.0, -2.5), (4.5, -1.2), (5.0, -4.0), (6.0, -0.8), (2.2, -1.5),
    (0.5, 0.7), (0.5, -0.6), (1.0, 0.5), (1.0, -1.0), (1.5, 1.2),
    (1.5, -2.0), (0.3, 2.0), (1.8, -0.4), (0.8, -3.0), (1.2, 0.9),
    (0.0, 0.5), (-0.5, 0.8), (-1.0, 1.0), (-1.5, 2.0), (-2.0, 0.6),
    (-3.0, 1.5), (-0.3, 3.0), (-2.5, 2.5), (-4.0, 1.2), (-0.8, 0.4),
)
C5_ALPHA = tuple(float(v) for v in np.linspace(-1.0, 7.0, 40))
C5_BETA = tuple(
    float(v)
    for v in np.concatenate([np.linspace(-3.0, -0.08, 20), np.linspace(0.08, 1.5, 20)])
)
C10_POINT = (0.1, -0.1, -0.1, -0.1)


@dataclass
class Outcome:
    """Result of one op call: correctness, byte-stable values, diagnostics.

    ``weight`` spreads the call's latency over the paths it simulated (an
    ensemble is one vectorised call, so its paths share its time evenly).
    A call that stands for several ops (one CLI call writing several paths)
    sets ``n_ops``, ``n_failed`` and per-op ``latencies`` (wall, CPU seconds)
    itself.
    """

    ok: bool
    values: list[float] | np.ndarray
    weight: int = 1
    diag: dict = field(default_factory=dict)
    n_ops: int = 1
    n_failed: int | None = None
    latencies: list[tuple[float, float]] | None = None

    def failed(self) -> int:
        if self.n_failed is not None:
            return self.n_failed
        return 0 if self.ok else self.n_ops

    def digest(self) -> str:
        arr = np.asarray(self.values, dtype=np.float64)
        return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Reference kernels.  Each is fixed benchmark-owned work, so no change to
# cir_ldp moves it; timing it alongside the rounds measures how fast the
# machine runs that kind of code right now.  Python-bound code and numpy's
# random generators slow down differently when the host is busy, so each
# workload names the kernel that resembles its own work.
# ---------------------------------------------------------------------------


def reference_python() -> float:
    """Scalar float arithmetic in the interpreter plus small numpy calls."""
    s = 0.0
    for i in range(1, 50_000):
        s += math.sqrt(i) / (i + 0.5)
    a = np.arange(1.0, 2001.0)
    for _ in range(250):
        s += float(np.dot(a, 1.0 / a))
    return s


def reference_numpy_rng() -> float:
    """Poisson and Gamma draws on 4 096-element arrays, as a block sampler makes."""
    rng = np.random.Generator(np.random.Philox(12345))
    x = np.full(4096, 4.0)
    for _ in range(30):
        x = 0.25 * rng.standard_gamma(2.0 + rng.poisson(x))
    return float(x.sum())


@dataclass(frozen=True)
class Workload:
    name: str
    throughput: str  # "path_steps" or "points"
    tail_pct: float  # fixed tail percentile, see run.py
    min_ops: int  # ops a run always reaches, so tail_pct keeps 10 samples beyond it
    sizes: dict
    make_inputs: Callable[[int], list]
    run_op: Callable[[tuple], Outcome]
    round_work: Callable[[list], int]
    reference: Callable[[], float]


def _round_rng(seed: int, r: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([salt, seed, r])


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


# ---------------------------------------------------------------------------
# mc_ensemble
# ---------------------------------------------------------------------------

MC_PATHS = 5000  # C8's path count: one full 4 096-path block plus 904
MC_ROUNDS = 200


def _mc_inputs(seed: int) -> list:
    rounds = []
    for r in range(MC_ROUNDS):
        rng = _round_rng(seed, r, 1)
        ops = [
            ("ensemble", 1.0, 200, MC_PATHS, _seed64(rng)),  # 200 steps per unit
            ("ensemble", 4.0, 200, MC_PATHS, _seed64(rng)),  # 50 steps per unit
            ("clt", 5.0, 1000, MC_PATHS, _seed64(rng)),
            ("slope", "S", 4.5, (1.0, 2.0, 4.0), 50, MC_PATHS, _seed64(rng)),
            ("slope", "Sigma", 0.6, (1.0, 2.0, 4.0), 50, MC_PATHS, _seed64(rng)),
            ("cgf_mc", C10_POINT, 2.0, 400, MC_PATHS, _seed64(rng)),
        ]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return rounds


def _mc_path_steps(op: tuple) -> int:
    kind = op[0]
    if kind in ("ensemble", "clt"):
        return op[2] * op[3]
    if kind == "slope":
        _, _, _, t_grid, per_unit, n_paths, _ = op
        return sum(max(2, round(per_unit * T)) for T in t_grid) * n_paths
    _, _, _, n_steps, n_paths, _ = op
    return n_steps * n_paths


def _exact_means(T: float, n_steps: int) -> tuple[float, float]:
    """E[X_T] and E[S_T] (trapezoid average of the conditional mean m(t))."""
    a, b, x0 = P44.a, P44.b, P44.x0
    t = np.linspace(0.0, T, n_steps + 1)
    m = x0 * np.exp(b * t) + (a / b) * np.expm1(b * t)
    w = np.ones_like(m)
    w[0] = w[-1] = 0.5
    return float(m[-1]), float(np.dot(w, m) / n_steps)


def _within(sample: np.ndarray, expected: float, n_se: float = 5.0) -> tuple[bool, float]:
    se = float(sample.std(ddof=1)) / math.sqrt(sample.size)
    z = (float(sample.mean()) - expected) / se
    return abs(z) <= n_se, z


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def _mc_op(op: tuple) -> Outcome:
    kind = op[0]
    if kind == "ensemble":
        _, T, n_steps, n_paths, seed = op
        ens = cir_model.simulate_ensemble(P44, T, n_steps, n_paths, seed, n_workers=N_WORKERS)
        mx, ms = _exact_means(T, n_steps)
        ok_x, zx = _within(ens.x_T, mx)
        ok_s, zs = _within(ens.S, ms)
        shaped = all(len(v) == n_paths for v in (ens.x_T, ens.S, ens.Sigma))
        positive = bool(np.all(ens.x_T > 0.0) and np.all(ens.S > 0.0) and np.all(ens.Sigma > 0.0))
        ok = shaped and positive and _finite(ens.x_T, ens.S, ens.Sigma) and ok_x and ok_s
        values = np.concatenate([ens.x_T, ens.S, ens.Sigma])
        return Outcome(ok, values, n_paths, {"z_xT": zx, "z_S": zs})
    if kind == "clt":
        _, T, n_steps, n_paths, seed = op
        reports = harness.clt_experiments(
            P44, ["mle", "tilde", "check"], T, n_paths, seed,
            n_steps=n_steps, n_workers=N_WORKERS,
        )
        ok = len(reports) == 3 and all(
            r.n_paths == n_paths
            and r.mean.shape == (2,)
            and r.covariance.shape == (2, 2)
            and _finite(r.mean, r.covariance, r.relative_deviations)
            for r in reports
        )
        values = [v for r in reports for v in (*r.mean, *r.covariance.ravel())]
        diag = {r.estimator: float(np.max(r.relative_deviations)) for r in reports}
        diag["tolerance"] = 0.15
        return Outcome(ok, values, n_paths, diag)
    if kind == "slope":
        _, functional, c, t_grid, per_unit, n_paths, seed = op
        rep = harness.slope_experiment(
            P44, functional, c, t_grid, n_paths, seed,
            n_steps_per_unit=per_unit, n_workers=N_WORKERS,
        )
        ok = (
            len(rep.slopes) == len(t_grid)
            and _finite(rep.slopes, rep.target_rate)
            and min(rep.hits) >= 1
            and rep.hits[-1] >= rep.n_min
        )
        diag = {"slope": rep.slopes[-1], "target": rep.target_rate, "within_30pct": rep.passed}
        return Outcome(ok, [*rep.slopes, *rep.hits], n_paths * len(t_grid), diag)
    _, point, T, n_steps, n_paths, seed = op
    est, se = cgf.cgf_finite_T_mc(
        P44, cgf.CgfPoint(*point), T, n_paths, seed, n_steps=n_steps, n_workers=N_WORKERS
    )
    ok = math.isfinite(est) and math.isfinite(se) and se > 0.0
    diag = {"estimate": est, "stderr": se, "limit": C10_LIMIT,
            "within_3se_plus_0.05": abs(est - C10_LIMIT) <= 3.0 * se + 0.05}
    return Outcome(ok, [est, se], n_paths, diag)


C10_LIMIT = cgf.cgf_limit(P44, cgf.CgfPoint(*C10_POINT))

# ---------------------------------------------------------------------------
# stored_paths
# ---------------------------------------------------------------------------

SP_T = 20.0
SP_STEPS_PER_UNIT = 200  # 4 000-step paths, ~100 kB of CSV each
SP_PATHS = 4  # paths per round, i.e. per `cir-ldp simulate` call
SP_ROUNDS = 3000
_ESTIMATORS = ("estimate_mle", "estimate_tilde", "estimate_check", "estimate_combined")


def _sp_inputs(seed: int) -> list:
    return [
        [("simulate", SP_T, SP_STEPS_PER_UNIT, SP_PATHS, _seed64(_round_rng(seed, r, 2)))]
        for r in range(SP_ROUNDS)
    ]


def _check_trajectory(traj, n_steps: int) -> bool:
    times, values = traj.times, traj.values
    if times.size != n_steps + 1 or times[0] != 0.0:
        return False
    dt = SP_T / n_steps
    if not np.all(np.abs(np.diff(times) - dt) <= 1e-9 * dt):
        return False
    return bool(values[0] == P44.x0 and np.all(values > 0.0) and abs(times[-1] - SP_T) <= 1e-9)


class StoredPathsOp:
    """One `cir-ldp simulate` call into a scratch directory, then read back.

    The directory lives under the checkout's ``.perfbench_out`` (the benchmark
    writes nowhere else) and is removed by ``cleanup`` outside the timed body.
    Each path is one op; its latency is its share of the CLI call plus its own
    read, functionals and estimators.
    """

    def __init__(self, scratch_root: str) -> None:
        self.scratch_root = scratch_root
        self.dirs: list[str] = []
        self.csv_bytes: list[int] = []

    def __call__(self, op: tuple) -> Outcome:
        _, T, per_unit, n_paths, seed = op
        out_dir = tempfile.mkdtemp(prefix="stored-", dir=self.scratch_root)
        self.dirs.append(out_dir)
        n_steps = int(round(per_unit * T))
        argv = [
            "simulate", "--a", repr(P44.a), "--b", repr(P44.b), "--T", repr(T),
            "--n-steps", str(per_unit), "--paths", str(n_paths), "--seed", str(seed),
            "--out", out_dir, "--workers", str(N_WORKERS),
        ]
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(argv)
        wall_share = (time.perf_counter() - w0) / n_paths
        cpu_share = (time.process_time() - c0) / n_paths
        cli_ok = code == 0 and json.loads(captured.getvalue()).get("pass") is True
        values: list[float] = []
        latencies: list[tuple[float, float]] = []
        failed = 0
        for i in range(n_paths):
            w1, c1 = time.perf_counter(), time.process_time()
            path = os.path.join(out_dir, f"traj_{i:05d}.csv")
            traj = cir_model.read_trajectory_csv(path, P44)
            pf = functionals.compute_functionals(traj)
            ests = [getattr(functionals, name)(pf) for name in _ESTIMATORS]
            latencies.append((wall_share + time.perf_counter() - w1,
                              cpu_share + time.process_time() - c1))
            pairs = [v for e in ests for v in (e.alpha, e.beta)]
            if not (cli_ok and _check_trajectory(traj, n_steps) and _finite(pairs)):
                failed += 1
            values.extend(pairs)
            self.csv_bytes.append(os.path.getsize(path))
        return Outcome(failed == 0, values, n_ops=n_paths, n_failed=failed, latencies=latencies)

    def cleanup(self) -> None:
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)
        self.dirs.clear()


# ---------------------------------------------------------------------------
# legendre_duality
# ---------------------------------------------------------------------------

LD_TOL = 1e-6
LD_ROUNDS = 400
# Strata: the pair grid split by x row (cost rises with x), the quad grid by
# y (cost rises from ~120 to ~200 ms with y).  A round takes the next point of
# every stratum from a seed-chosen cycle through it.
_LD_PAIR_STRATA = [
    [(0.0, x, y, 0.0) for x in C3_PAIR_X[lo:hi] for y in C3_PAIR_Y]
    for lo, hi in ((0, 10), (10, 20))
]
_LD_QUAD_STRATA = [
    [(x, y, z, t) for x in C3_QUAD["x"] for z in C3_QUAD["z"] for t in C3_QUAD["t"]]
    for y in C3_QUAD["y"]
]


def _ld_inputs(seed: int) -> list:
    rng = np.random.default_rng([3, seed])
    pair_cycles = [rng.permutation(len(s)) for s in _LD_PAIR_STRATA]
    quad_cycles = [rng.permutation(len(s)) for s in _LD_QUAD_STRATA]
    rounds = []
    for r in range(LD_ROUNDS):
        ops = [("pair", *s[c[r % len(c)]]) for s, c in zip(_LD_PAIR_STRATA, pair_cycles)]
        ops += [("quad", *s[c[r % len(c)]]) for s, c in zip(_LD_QUAD_STRATA, quad_cycles)]
        order = _round_rng(seed, r, 3).permutation(len(ops))
        rounds.append([ops[i] for i in order])
    return rounds


def _ld_op(op: tuple) -> Outcome:
    kind, x, y, z, t = op
    numeric = cgf.legendre_transform_numeric(P44, x, y, z, t)
    if kind == "pair":
        closed = rates.rate_pair(P44, y, z)
    else:
        closed = cgf.lambda_star(P44, x, y, z, t)
    diff = abs(numeric - closed)
    ok = math.isfinite(numeric) and math.isfinite(closed) and diff <= LD_TOL
    return Outcome(ok, [numeric, closed], diag={"abs_diff": diff})


# ---------------------------------------------------------------------------
# infsup_rates
# ---------------------------------------------------------------------------

IR_INFSUP_TOL = 1e-4
IR_MARGINAL_TOL = 1e-6
IR_ROUNDS = 100
# Every round runs all of C4's 30 points and all 120 of C5's marginal
# cross-checks, in a seed-chosen order: the C4 points cost 0.15 to 1 s each,
# so a sample of them would make the round's time depend on the seed.  Each
# C5 grid is one op (40 points of 0.3-1.6 ms; as single ops they would put the
# round's median op on the edge between the cheap and the dear grids).  The
# seed samples the figure grids instead: the surface window's offset and the
# 61 profile abscissae, from fixed grids.
_IR_MARGINALS = (("Ja", "J", "a", C5_ALPHA), ("Ka", "K", "a", C5_ALPHA), ("Jb", "J", "b", C5_BETA))
_IR_OFFSETS = (-0.5, -0.25, 0.0, 0.25, 0.5)
_IR_PROFILE_GRID = tuple(float(v) for v in np.linspace(-4.0, 8.0, 241))


def _ir_inputs(seed: int) -> list:
    rounds = []
    for r in range(IR_ROUNDS):
        rng = _round_rng(seed, r, 4)
        da, db = (float(x) for x in rng.choice(_IR_OFFSETS, size=2))
        profile = tuple(sorted(rng.choice(_IR_PROFILE_GRID, size=61, replace=False).tolist()))
        ops: list[tuple] = [("infsup", alpha, beta) for alpha, beta in C4_POINTS]
        ops += [
            ("marginal_grid", sel, surface, axis, tuple(grid[i] for i in rng.permutation(len(grid))))
            for sel, surface, axis, grid in _IR_MARGINALS
        ]
        ops += [("surface", (3.0 + da, 5.0 + da), (-4.0 + db, -0.5 + db)), ("profile", profile)]
        rounds.append([ops[i] for i in rng.permutation(len(ops))])
    return rounds


def _ir_op(op: tuple) -> Outcome:
    kind = op[0]
    if kind == "infsup":
        _, alpha, beta = op
        numeric = rates.rate_I_infsup(P44, alpha, beta)
        closed = rates.rate_I_mle(P44, alpha, beta)
        ok = math.isfinite(numeric) and abs(numeric - closed) <= IR_INFSUP_TOL
        return Outcome(ok, [numeric, closed], diag={"abs_diff": abs(numeric - closed)})
    if kind == "marginal_grid":
        _, sel, surface, axis, grid = op
        values, diffs, failed = [], [], 0
        for v in grid:
            numeric = rates.marginal_inf_numeric(P44, surface, axis, v)
            closed = rates.rate_marginal(P44, sel, v)
            diff = abs(numeric - closed)
            failed += not (math.isfinite(numeric) and math.isfinite(closed) and diff <= IR_MARGINAL_TOL)
            values += [numeric, closed]
            diffs.append(diff)
        return Outcome(failed == 0, values, diag={"max_abs_diff": max(diffs)},
                       n_ops=len(grid), n_failed=failed)
    if kind == "surface":
        _, alpha_range, beta_range = op
        grid = harness.surface_grid(P44, alpha_range=alpha_range, beta_range=beta_range)
        ok = (
            grid.J.shape == grid.K.shape == grid.I.shape == (41, 41)
            and not np.any(np.isnan(grid.J) | np.isnan(grid.K))
            and np.array_equal(grid.I, np.minimum(grid.J, grid.K))
            and grid.max_shared_diff(P44) <= 1e-9
        )
        return Outcome(bool(ok), np.concatenate([grid.J.ravel(), grid.K.ravel()]))
    curves = harness.profile_curves(P44, op[1])
    cols = (curves.Ja, curves.Ka, curves.Ia, curves.Jb, curves.Kb, curves.Ib)
    ok = (
        all(c.shape == curves.v.shape for c in cols)
        and not any(np.any(np.isnan(c)) for c in cols)
        and np.array_equal(curves.Ia, np.minimum(curves.Ja, curves.Ka))
        and np.array_equal(curves.Ib, np.minimum(curves.Jb, curves.Kb))
    )
    return Outcome(bool(ok), np.concatenate(cols))


def cross_check_points(round_ops: list) -> int:
    return sum(
        len(op[4]) if op[0] == "marginal_grid" else 1
        for op in round_ops
        if op[0] in ("pair", "quad", "infsup", "marginal_grid")
    )


WORKLOADS = {
    "mc_ensemble": Workload(
        name="mc_ensemble",
        throughput="path_steps",
        tail_pct=99.9,
        min_ops=2 * 6 * MC_PATHS,
        sizes={
            "n_paths": MC_PATHS, "n_workers": N_WORKERS, "steps_per_unit": [200, 50],
            "ops_per_round": ["ensemble T=1 n=200", "ensemble T=4 n=200", "clt T=5 n=1000",
                              "slope S c=4.5 T=1,2,4 @50", "slope Sigma c=0.6 T=1,2,4 @50",
                              "cgf_mc T=2 n=400"],
        },
        make_inputs=_mc_inputs,
        run_op=_mc_op,
        round_work=lambda ops: sum(_mc_path_steps(op) for op in ops),
        reference=reference_numpy_rng,
    ),
    "stored_paths": Workload(
        name="stored_paths",
        throughput="path_steps",
        tail_pct=90.0,
        min_ops=100,
        sizes={"T": SP_T, "steps_per_unit": SP_STEPS_PER_UNIT, "paths_per_round": SP_PATHS,
               "n_workers": N_WORKERS},
        make_inputs=_sp_inputs,
        run_op=None,  # bound per run: StoredPathsOp needs a scratch directory
        round_work=lambda ops: sum(int(round(op[1] * op[2])) * op[3] for op in ops),
        reference=reference_python,
    ),
    "legendre_duality": Workload(
        name="legendre_duality",
        throughput="points",
        tail_pct=90.0,
        min_ops=100,
        sizes={"pair_per_round": len(_LD_PAIR_STRATA), "quad_per_round": len(_LD_QUAD_STRATA),
               "tolerance": LD_TOL},
        make_inputs=_ld_inputs,
        run_op=_ld_op,
        round_work=cross_check_points,
        reference=reference_python,
    ),
    "infsup_rates": Workload(
        name="infsup_rates",
        throughput="points",
        tail_pct=75.0,
        min_ops=40,
        sizes={"infsup_per_round": len(C4_POINTS), "marginal_per_round": len(_IR_MARGINALS),
               "figures_per_round": ["surface_grid 41x41", "profile_curves 61"],
               "tolerance_infsup": IR_INFSUP_TOL, "tolerance_marginal": IR_MARGINAL_TOL},
        make_inputs=_ir_inputs,
        run_op=_ir_op,
        round_work=cross_check_points,
        reference=reference_python,
    ),
}
