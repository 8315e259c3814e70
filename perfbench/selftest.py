"""Self-test of the benchmark's determinism.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Checks, for every workload:

* the same seed gives identical generated inputs;
* running the first round twice with the same seed gives bit-identical
  numeric outcomes;
* a different seed gives different first-round inputs, not only another
  order of the same ones (``legendre_duality`` samples C3 points,
  ``infsup_rates`` its figure grids), and different ensembles
  (``mc_ensemble``, ``stored_paths``).

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _round_digests(wl, seed: int, scratch: Path) -> list[str]:
    run_op = wl.run_op
    stored = None
    if run_op is None:
        stored = run_op = workloads.StoredPathsOp(str(scratch))
    try:
        return [run_op(op).digest() for op in wl.make_inputs(seed)[0]]
    finally:
        if stored is not None:
            stored.cleanup()


def main() -> int:
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)

    for name, wl in workloads.WORKLOADS.items():
        inputs_1 = wl.make_inputs(1)
        check(inputs_1 == wl.make_inputs(1), f"{name}: same seed, identical inputs")
        inputs_2 = wl.make_inputs(2)
        check(
            sorted(map(repr, inputs_1[0])) != sorted(map(repr, inputs_2[0])),
            f"{name}: different seed, different sample (not only another order)",
        )
        first = _round_digests(wl, 1, scratch)
        check(first == _round_digests(wl, 1, scratch), f"{name}: same seed, bit-identical outcomes")
        if name in ("mc_ensemble", "stored_paths"):
            other = _round_digests(wl, 2, scratch)
            check(not set(first) & set(other), f"{name}: different seed, different ensembles")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
