"""Run one benchmark workload of cir_ldp and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload mc_ensemble --seed 1 --seconds 20 --trace 0

The run imports the package from ``src/``, builds the workload's inputs from
``--seed``, then repeats rounds (a fixed amount of work each) until
``--seconds`` have passed and enough ops were timed for the tail percentile.
Every op's output is checked.

Times are taken two ways.  The wall-clock metrics (``wall_s``,
``op_p50_ms``, ``op_tail_ms``, ``path_steps_per_s``, ``points_per_s``) are
reported only.  The gated metrics of ``BENCHMARK.json`` (``setup_s``, ``cpu_s``,
``op_cpu_p50_ms``, ``op_cpu_tail_ms``) and every per-layer time are in
*reference seconds*: CPU seconds of the benchmark process (of the set-up
child for ``setup_s``), scaled by ``nominal / measured`` time of a fixed
reference kernel that belongs to the benchmark (see ``workloads``), timed
between ops every 0.2 CPU-seconds; each round is scaled by the mean of
the kernel timings taken during and next to it.  On the
shared 2-vCPU VM the benchmark was built on, the host steals 0-40% of a vCPU
(which the CPU clock excludes) and the speed of a vCPU changes by up to 1.6x
within a minute (which the reference kernel tracks); raw wall times of
identical rounds spread by 15-30% from run to run.  No change to cir_ldp can
move the reference kernels, so a change to the package moves reference
seconds exactly as it moves CPU seconds on a quiet machine.

The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it is the full report: provenance, every
metric with sample counts, finite-horizon diagnostics and failing op ids.
The report, the byte-stable outputs (per-round digests, no timings) and, when
traced, the spans go to ``.perfbench_out/`` in the checkout.

``--trace 1`` runs each round twice on the same inputs, once plain and once
with the layer wrappers of ``layertrace`` installed, alternating which goes
first; ``trace.overhead_s`` is the median of the paired differences.  With
``--trace 0`` no wrapper is ever installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MAX_RUN_S = 120.0
# The reference kernels' CPU time on the machine that defined the benchmark
# (2-vCPU KVM guest, Python 3.11, numpy 2.4) when it was quiet.  They fix the
# unit of the gated times: CPU seconds at that speed.
REF_NOMINAL_S = {"reference_python": 0.0104, "reference_numpy_rng": 0.0167}
REF_EVERY_CPU_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cpu_s": "s",
    "op_cpu_p50_ms": "ms",
    "op_cpu_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
REPORT_ONLY_UNITS = {
    "setup_wall_s": "s",
    "cpu_raw_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "path_steps_per_s": "1/s",
    "points_per_s": "1/s",
    "fail_frac": "ratio",
}
PER_LAYER_UNITS = {
    "cir_model.ensemble_ns_per_path_step": "ns",
    "cir_model.ensemble_share": "ratio",
    "cir_model.path_us_per_step": "us",
    "cir_model.csv_write_us_per_row": "us",
    "cir_model.csv_read_us_per_row": "us",
    "cir_model.csv_bytes_per_path": "B",
    "cir_model.parallel_eff_2w": "ratio",
    "functionals.estimate_us_per_path": "us",
    "functionals.compute_us_per_path": "us",
    "functionals.estimator_calls": "count",
    "cgf.legendre_ms_per_point": "ms",
    "cgf.cgf_limit_calls_per_point": "count",
    "cgf.dual_vars_calls_per_point": "count",
    "cgf.lambda_star_us_per_call": "us",
    "cgf.lambda_star_calls_per_point": "count",
    "rates.infsup_ms_per_point": "ms",
    "rates.infsup_self_share": "ratio",
    "rates.marginal_inf_ms_per_call": "ms",
    "rates.rate_K_calls": "count",
    "rates.region_constants_calls": "count",
    "harness.clt_self_ms": "ms",
    "harness.slope_self_ms": "ms",
    "harness.figures_ms": "ms",
    "cli.simulate_self_ms": "ms",
    "cir_model.self_s": "s",
    "functionals.self_s": "s",
    "cgf.self_s": "s",
    "rates.self_s": "s",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_share": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------


def weighted_percentile(samples: list[tuple[float, int]], pct: float) -> float:
    """Lower weighted percentile: the smallest value with >= pct% of the weight at or below it."""
    ordered = sorted(samples)
    total = sum(w for _, w in ordered)
    need = pct / 100.0 * total
    acc = 0
    for value, w in ordered:
        acc += w
        if acc >= need:
            return value
    return ordered[-1][0]


def tail_percentile(wanted: float, n_samples: int) -> float:
    """``wanted`` if at least 10 samples lie beyond it, else the next rung down."""
    for pct in TAIL_LADDER:
        if pct <= wanted and round(n_samples * (100.0 - pct) / 100.0, 6) >= 10.0:
            return pct
    return 50.0


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    # Read .git directly: the benchmark may run in a checkout that is not a
    # repository, and must not look outside it.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, wl) -> dict:
    import numpy
    import scipy

    import cir_ldp
    import workloads as wl_module

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cir_ldp": cir_ldp.__version__,
        "git_commit": _git_commit(),
        "seed": args.seed,
        "workload": wl.name,
        "sizes": wl.sizes,
        "BLOCK_SIZE": cir_ldp.BLOCK_SIZE,
        "n_workers": wl_module.N_WORKERS,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "setup_repeats": SETUP_REPEATS,
    }


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_time(args) -> tuple[float, float]:
    """(wall, CPU) seconds of a fresh interpreter importing cir_ldp and building the inputs."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    c0 = _children_cpu()
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120, cwd=ROOT)
    return time.perf_counter() - t0, _children_cpu() - c0


# ---------------------------------------------------------------------------
# Rounds.
# ---------------------------------------------------------------------------


class Run:
    """Accumulates op outcomes, latency samples and failures of one run."""

    def __init__(self, run_op, ref: ReferenceClock) -> None:
        self.run_op = run_op
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.failing: list[dict] = []
        self.wall_samples: list[tuple[float, int]] = []
        self.cpu_samples: list[tuple[float, int, int]] = []  # (seconds, weight, round)
        self.sample_weight = 0
        self.diags: dict[str, list] = {}

    def round(self, r: int, ops: list, tracer=None) -> tuple[float, float, list[str]]:
        """Run one round; returns its wall and CPU seconds and the per-op output digests.

        The round's times are the sums of its ops' times: the reference
        kernel runs between ops and is not part of them.
        """
        digests = []
        round_wall = round_cpu = 0.0
        for i, op in enumerate(ops):
            if self.ref.due():
                self.ref.sample()
            op_id = r * 100 + i
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    out = self.run_op(op)
                else:
                    out = tracer.run_op(op_id, lambda: self.run_op(op))
                error = None
            except Exception as exc:  # a raising op is a failed op, kept by id
                out, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            round_wall += wall
            round_cpu += cpu
            self.ref.clock += cpu
            if out is None:
                n_ops = op[3] if op[0] == "simulate" else 1  # a CLI call is one op per path
                self.attempted += n_ops
                self.failed += n_ops
                self.failing.append({"op": op_id, "kind": op[0], "error": error})
                digests.append("error")
                continue
            self.attempted += out.n_ops
            if out.failed():
                self.failed += out.failed()
                self.failing.append({"op": op_id, "kind": op[0], "input": repr(op), "diag": out.diag})
            if tracer is None:  # latency samples come from plain rounds only
                per_op = out.latencies or [(wall / out.weight, cpu / out.weight)]
                weight = 1 if out.latencies else out.weight
                self.wall_samples.extend((w, weight) for w, _ in per_op)
                self.cpu_samples.extend((c, weight, r) for _, c in per_op)
                self.sample_weight += weight * len(per_op)
            label = f"slope_{op[1]}" if op[0] == "slope" else op[0]
            for key, value in out.diag.items():
                self.diags.setdefault(f"{label}.{key}", []).append(value)
            digests.append(out.digest())
        return round_wall, round_cpu, digests


def _diag_summary(diags: dict[str, list]) -> dict:
    out = {}
    for key, values in sorted(diags.items()):
        if all(isinstance(v, bool) for v in values):
            out[key] = {"true": sum(values), "of": len(values)}
        else:
            vals = [float(v) for v in values]
            out[key] = {"median": statistics.median(vals), "max": max(vals), "min": min(vals), "n": len(vals)}
    return out


def time_reference(kernel) -> float:
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0


class ReferenceClock:
    """Reference-kernel timings placed on the run's cumulative op-CPU axis.

    The kernel is timed between ops, every ``REF_EVERY_CPU_S`` of op CPU, so
    it samples the machine's speed while the ops run: that speed changes by
    up to 1.6x and holds for 0.1 to a few seconds.  ``scale(a, b)`` is the
    kernel's nominal time over its mean time in and next to the interval
    ``[a, b]``: the factor that turns CPU seconds spent there into reference
    seconds.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.nominal = REF_NOMINAL_S[kernel.__name__]
        self.points: list[tuple[float, float]] = []  # (round clock, kernel seconds)
        self.clock = 0.0

    def sample(self) -> None:
        self.points.append((self.clock, time_reference(self.kernel)))

    def due(self) -> bool:
        return self.clock - self.points[-1][0] >= REF_EVERY_CPU_S

    def scale(self, a: float, b: float) -> float:
        near = [y for x, y in self.points if a - REF_EVERY_CPU_S <= x <= b + REF_EVERY_CPU_S]
        if not near:
            near = [min(self.points, key=lambda p: abs(p[0] - 0.5 * (a + b)))[1]]
        return self.nominal / statistics.fmean(near)


def parallel_probe(seed: int) -> dict:
    """One C8-shaped ensemble (5 000 paths: blocks of 4 096 and 904) at 1 and 2 workers."""
    from cir_ldp import cir_model
    import numpy as np
    from workloads import P44

    n_paths, T, n_steps = 5000, 2.0, 400
    blocks = [min(cir_model.BLOCK_SIZE, n_paths - s) for s in range(0, n_paths, cir_model.BLOCK_SIZE)]
    info = {"n_paths": n_paths, "T": T, "n_steps": n_steps, "block_paths": blocks}
    if (os.cpu_count() or 1) < 2:
        info.update(eff=0.0, skipped="fewer than 2 processors")
        return info
    t1, t2, invariant = [], [], True
    for _ in range(3):
        t0 = time.perf_counter()
        one = cir_model.simulate_ensemble(P44, T, n_steps, n_paths, seed, n_workers=1)
        t1.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        two = cir_model.simulate_ensemble(P44, T, n_steps, n_paths, seed, n_workers=2)
        t2.append(time.perf_counter() - t0)
        invariant = invariant and all(
            np.array_equal(getattr(one, k), getattr(two, k)) for k in ("x_T", "S", "Sigma")
        )
    info.update(
        t_1w_s=statistics.median(t1), t_2w_s=statistics.median(t2),
        eff=statistics.median(t1) / (2.0 * statistics.median(t2)), worker_invariant=invariant,
    )
    return info


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced rounds.
# ---------------------------------------------------------------------------


def layer_metrics(tracer, traced, ref, first, points_first, csv_bytes, probe) -> dict:
    """Per-layer metrics from the traced rounds, times in reference seconds."""
    def st(stats, name):
        return stats.get(name, (0, 0.0, 0.0, 0))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    total: dict[str, tuple] = {}
    traced_cpus, overheads = [], []
    for t_cpu, cpu, delta, (a, b) in traced:
        k = ref.scale(a, b)
        traced_cpus.append(t_cpu * k)
        overheads.append((t_cpu - cpu) * k)
        for name, (c, incl, self_t, w) in delta.items():
            c0, i0, s0, w0 = total.get(name, (0, 0.0, 0.0, 0))
            total[name] = (c0 + c, i0 + incl * k, s0 + self_t * k, w0 + w)
    n_rounds = len(traced_cpus)
    cpu_total = sum(traced_cpus)
    ens = st(total, "simulate_ensemble")
    path = st(total, "simulate_path")
    write = st(total, "write_trajectory_csv")
    read = st(total, "read_trajectory_csv")
    compute = st(total, "compute_functionals")
    ffs = st(total, "functionals_from_summary")
    legendre = st(total, "legendre_transform_numeric")
    lstar = st(total, "lambda_star")
    infsup = st(total, "rate_I_infsup")
    marginal = st(total, "marginal_inf_numeric")
    layers = tracer.layer_self(total)
    estimate_s = layers["functionals"] - compute[2]
    m = {
        "cir_model.ensemble_ns_per_path_step": ratio(ens[1], ens[3], 1e9),
        "cir_model.ensemble_share": ratio(ens[1], cpu_total),
        "cir_model.path_us_per_step": ratio(path[1], path[3], 1e6),
        "cir_model.csv_write_us_per_row": ratio(write[1], path[3] + path[0], 1e6),
        "cir_model.csv_read_us_per_row": ratio(read[1], read[3] + read[0], 1e6),
        "cir_model.csv_bytes_per_path": ratio(sum(csv_bytes), len(csv_bytes)),
        "cir_model.parallel_eff_2w": probe.get("eff", 0.0) if probe else 0.0,
        "functionals.estimate_us_per_path": ratio(estimate_s, ffs[0] + compute[0], 1e6),
        "functionals.compute_us_per_path": ratio(compute[1], compute[0], 1e6),
        "functionals.estimator_calls": sum(
            v[0] for k, v in first.items() if k.startswith("estimate_")
        ),
        "cgf.legendre_ms_per_point": ratio(legendre[1], legendre[0], 1e3),
        "cgf.cgf_limit_calls_per_point": ratio(st(first, "cgf_limit")[0], st(first, "legendre_transform_numeric")[0]),
        "cgf.dual_vars_calls_per_point": ratio(st(first, "dual_vars")[0], st(first, "legendre_transform_numeric")[0]),
        "cgf.lambda_star_us_per_call": ratio(lstar[1], lstar[0], 1e6),
        "cgf.lambda_star_calls_per_point": ratio(st(first, "lambda_star")[0], points_first),
        "rates.infsup_ms_per_point": ratio(infsup[1], infsup[0], 1e3),
        "rates.infsup_self_share": ratio(infsup[2], infsup[1]),
        "rates.marginal_inf_ms_per_call": ratio(marginal[1], marginal[0], 1e3),
        "rates.rate_K_calls": st(first, "rate_K")[0],
        "rates.region_constants_calls": st(first, "region_constants")[0],
        "harness.clt_self_ms": ratio(st(total, "clt_experiments")[2], n_rounds, 1e3),
        "harness.slope_self_ms": ratio(st(total, "slope_experiment")[2], n_rounds, 1e3),
        "harness.figures_ms": ratio(
            st(total, "surface_grid")[1] + st(total, "profile_curves")[1], n_rounds, 1e3
        ),
        "cli.simulate_self_ms": ratio(st(total, "cli.main")[2], n_rounds, 1e3),
    }
    named = 0.0
    for layer, self_s in layers.items():
        if layer != "bench":
            m[f"{layer}.self_s"] = ratio(self_s, n_rounds)
            named += self_s
    m["bench.self_s"] = ratio(cpu_total - named, n_rounds)
    m["trace.overhead_s"] = statistics.median(overheads)
    m["trace.layer_share"] = ratio(named, cpu_total)
    return m


# ---------------------------------------------------------------------------
# Main.
# ---------------------------------------------------------------------------


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cir_ldp" / "__init__.py").is_file():
        print(f"perfbench: no cir_ldp sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread: the workloads are single-threaded, and idle BLAS
    # threads spinning after a call would add CPU time that is not work.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload].make_inputs(args.seed)
        return 0

    import workloads
    from layertrace import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    # Set-up, each repeat bracketed by the Python reference kernel.
    setup_ref = ReferenceClock(workloads.reference_python)
    setup_ref.sample()
    setup, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(setup_time(args))
        setup_ref.clock += 1.0
        setup_ref.sample()
        setup_scaled.append(setup[-1][1] * setup_ref.nominal
                            / statistics.fmean(y for _, y in setup_ref.points[-2:]))

    inputs = wl.make_inputs(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stored = None
    run_op = wl.run_op
    if run_op is None:
        stored = workloads.StoredPathsOp(str(OUT_DIR))
        run_op = stored

    ref = ReferenceClock(wl.reference)
    run = Run(run_op, ref)
    tracer = Tracer() if args.trace else None
    walls: list[float] = []
    cpus: list[float] = []
    intervals: list[tuple[float, float]] = []  # each round's interval on ref.clock
    work: list[int] = []
    traced: list[tuple] = []  # (traced CPU, plain CPU, stats delta, interval)
    round_digests: list[str] = []
    first_stats = None
    points_first = 0
    probe = None
    ref.sample()
    start = time.perf_counter()
    try:
        for r, ops in enumerate(inputs):
            elapsed = time.perf_counter() - start
            if r > 0 and (
                (elapsed >= args.seconds and run.sample_weight >= wl.min_ops)
                or elapsed >= min(3.0 * args.seconds, MAX_RUN_S)
            ):
                break
            a = ref.clock
            if tracer is None:
                wall, cpu, digests = run.round(r, ops)
            else:
                # Same inputs twice, plain and traced, alternating which goes first.
                for with_trace in ((False, True) if r % 2 == 0 else (True, False)):
                    if not with_trace:
                        wall, cpu, digests = run.round(r, ops)
                        continue
                    tracer.install()
                    before = tracer.snapshot()
                    _, t_cpu, t_digests = run.round(r, ops, tracer)
                    delta = Tracer.delta(tracer.snapshot(), before)
                    tracer.uninstall()
                    if first_stats is None:
                        first_stats = delta
                        points_first = workloads.cross_check_points(ops)
                if t_digests != digests:
                    run.failed += 1
                    run.failing.append({"op": r * 100, "kind": "round", "error": "tracing changed an output"})
                traced.append((t_cpu, cpu, delta, (a, ref.clock)))
            if stored is not None:
                stored.cleanup()
            walls.append(wall)
            cpus.append(cpu)
            intervals.append((a, ref.clock))
            work.append(wl.round_work(ops))
            round_digests.append(_sha(digests))
        ref.sample()
        if tracer is not None and wl.name == "mc_ensemble":
            probe = parallel_probe(inputs[0][0][-1])
            run.attempted += 1
            if not probe.get("worker_invariant", True):
                run.failed += 1
                run.failing.append({"op": -1, "kind": "parallel_probe", "error": "1 and 2 workers differ"})
    finally:
        if stored is not None:
            stored.cleanup()

    scales = [ref.scale(a, b) for a, b in intervals]
    cpu_samples = [(v * scales[r], w) for v, w, r in run.cpu_samples]
    n_samples = run.sample_weight
    tail_pct = tail_percentile(wl.tail_pct, n_samples)
    throughput = statistics.median(w / t for w, t in zip(work, walls))
    metrics = {
        "setup_s": statistics.median(setup_scaled),
        "cpu_s": statistics.median(c * k for c, k in zip(cpus, scales)),
        "op_cpu_p50_ms": weighted_percentile(cpu_samples, 50.0) * 1e3,
        "op_cpu_tail_ms": weighted_percentile(cpu_samples, tail_pct) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_wall_s": statistics.median(w for w, _ in setup),
        "cpu_raw_s": statistics.median(cpus),
        "wall_s": statistics.median(walls),
        "op_p50_ms": weighted_percentile(run.wall_samples, 50.0) * 1e3,
        "op_tail_ms": weighted_percentile(run.wall_samples, tail_pct) * 1e3,
        "path_steps_per_s": throughput if wl.throughput == "path_steps" else 0.0,
        "points_per_s": throughput if wl.throughput == "points" else 0.0,
        "fail_frac": run.failed / run.attempted,
    }
    units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    if tracer is not None:
        csv_bytes = stored.csv_bytes if stored is not None else []
        metrics.update(layer_metrics(tracer, traced, ref, first_stats, points_first, csv_bytes, probe))
        units.update(PER_LAYER_UNITS)
        shown = PER_LAYER_UNITS
    else:
        shown = END_TO_END_UNITS

    tag = f"{wl.name}-s{args.seed}-t{args.trace}"
    outputs = {"workload": wl.name, "seed": args.seed, "inputs": _sha(inputs[: len(walls)]),
               "rounds": round_digests}
    report = {
        "provenance": provenance(args, wl),
        "rounds": len(walls),
        "attempted": run.attempted,
        "failed": run.failed,
        "failing_ops": run.failing,
        "samples": {"op_samples": n_samples, "tail_pct": tail_pct, "setup_wall_cpu_s": setup,
                    "setup_reference_s": [y for _, y in setup_ref.points],
                    "wall_s": walls, "cpu_s": cpus, "round_scale": scales,
                    "traced_cpu_s": [t[0] for t in traced],
                    "reference": wl.reference.__name__, "reference_points": ref.points},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "diagnostics": _diag_summary(run.diags),
        "parallel_probe": probe,
        "trace_missing_targets": tracer.missing if tracer is not None else [],
        "outputs_digest": _sha(outputs),
    }
    (OUT_DIR / f"{tag}.report.json").write_text(json.dumps(report, indent=1))
    (OUT_DIR / f"{tag}.outputs.json").write_text(json.dumps(outputs, indent=1, sort_keys=True))
    if tracer is not None:
        records = [
            {"name": n, "start": w0 - start, "end": w1 - start, "cpu": cpu, "parent": parent, "op": op}
            for n, w0, w1, cpu, parent, op in tracer.spans
        ]
        (OUT_DIR / f"{tag}.spans.json").write_text(json.dumps(records))
    print(json.dumps(report))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
