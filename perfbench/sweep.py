"""Run the benchmark over workloads and seeds and summarise every metric.

Usage, from the root of a source checkout:

    python3 perfbench/sweep.py                      # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --workloads legendre_duality
    python3 perfbench/sweep.py --seeds 1-10 --trace 1 --out perfbench/baseline/traced.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
prints each metric by name and unit with its median, quartiles and spread
(interquartile distance over the median).  For end-to-end metrics the spread
is compared with the metric's bound in ``BENCHMARK.json``: a benchmark is
steady when every spread but ``setup_s``'s stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the summary (and every run's report) as JSON here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, "report": report})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for name, entry in runs[0]["report"]["metrics"].items():
            values = [r["report"]["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": entry["unit"], **summarise(values)}
        summary["workloads"][workload] = {
            "metrics": metrics,
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "provenance": runs[0]["report"]["provenance"],
            "runs": [
                {"seed": r["seed"], "result": r["result"],
                 "rounds": r["report"]["rounds"],
                 "failing_ops": r["report"]["failing_ops"],
                 "diagnostics": r["report"]["diagnostics"],
                 "outputs_digest": r["report"]["outputs_digest"]}
                for r in runs
            ],
        }
        print(f"== {workload} ({len(runs)} runs)")
        for name, m in metrics.items():
            note = ""
            if name in bounds:
                ok = name == "setup_s" or m["spread"] < bounds[name] / 3.0
                steady = steady and ok
                note = f"  bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}"
            print(f"  {name:40s} {m['median']:14.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}{note}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
