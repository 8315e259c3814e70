"""Byte-identical reruns: ``python ci/reruns.py`` (no flags).

Each check is a name and one or more runs that must give the same bytes: the
exit code, stdout, stderr and every file the run writes.  A run is a
``cir-ldp`` argument list, run with ``--out out``, or a Python snippet.  The
first run of a check runs twice more: once as it is, and once with
scipy blocked (``sys.modules["scipy"] = None``), since the library runs on
numpy alone.  Every run is a fresh interpreter in its own empty directory,
with ``src/`` next to this script on the path and RuntimeWarnings as errors.

One line per check: ok or FAIL, the sha256 of the first run's output, the
seconds taken and the name.  The exit code is 1 if any check fails.  To show
that a change keeps its parent's bits, run the script in both trees and diff
the lines with the seconds taken out.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CI = Path(__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": str(CI.parent / "src"),
       "PYTHONWARNINGS": "error::RuntimeWarning"}
# These suites may fail (exit 1) at the sizes below; they still write their reports.
MAY_FAIL = (["check", "clt"], ["check", "slope"])

SETS = [("4", "-1"), ("3", "-2"), ("6", "-3"), ("2.5", "-0.5")]
AB = ["--a", "4", "--b", "-1"]
SIM = ["simulate", *AB, "--T", "2.5", "--n-steps", "37", "--paths", "5", "--seed", "7"]
# 12 300 paths are three full blocks and one of 12 paths.  One worker advances
# all four in lockstep; three take one, one and two.
BLOCKS = [*AB, "--paths", "12300", "--seed"]
EST = ["estimate", *BLOCKS, "7", "--T", "1", "--n-steps", "20"]
SLOPE = ["check", "slope", *BLOCKS, "3", "--T-grid", "1,2,4", "--c", "4.5"]
SPECIAL_POINTS = """\
from cir_ldp import ProcessParams, rate_I_infsup
for a, b in ((4.0, -1.0), (3.0, -2.0), (6.0, -3.0), (2.5, -0.5)):
    p = ProcessParams(a, b)
    print(a, b, rate_I_infsup(p, 0.0, 0.0).hex(), rate_I_infsup(p, 2.0, 0.0).hex())
"""
PER_SET = [["check", "continuity"], ["check", "infsup"], ["check", "legendre"],
           ["figures", "--fig", "3"]]
CHECKS = [
    *((f"{' '.join(c)} ({a}, {b})", [[*c, "--a", a, "--b", b]]) for a, b in SETS for c in PER_SET),
    ("figures --fig 1", [["figures", "--fig", "1", *AB]]),
    ("rate --which I --grid", [["rate", "--which", "I", "--grid", *AB]]),
    ("simulate: 1 worker, 2 workers, config file", [
        [*SIM, "--workers", "1"], [*SIM, "--workers", "2"],
        ["simulate", "--config", str(CI / "simulate.json")],
    ]),
    ("estimate", [["estimate", *AB, "--T", "2", "--n-steps", "50", "--paths", "20",
                   "--seed", "7"]]),
    ("cgf --mc", [["cgf", "--mc", *AB, "--T", "1", "--n-steps", "50", "--paths", "200",
                   "--seed", "11"]]),
    ("estimate: 1 worker, 3 workers", [[*EST, "--workers", "1"], [*EST, "--workers", "3"]]),
    ("check slope: 1 worker, 3 workers", [[*SLOPE, "--workers", "1"], [*SLOPE, "--workers", "3"]]),
    ("check clt --estimator all", [["check", "clt", "--estimator", "all", *AB, "--T", "2",
                                    "--n-steps", "100", "--paths", "300", "--seed", "5"]]),
    ("rate_I_infsup at the special points", [SPECIAL_POINTS]),
]


def run(argv, workdir: Path, block_scipy: bool = False) -> dict:
    """Run one argument list or snippet in ``workdir``; its output by name."""
    workdir.mkdir()
    code = argv
    if not isinstance(argv, str):
        code = f"from cir_ldp.cli import main\nsys.exit(main({[*argv, '--out', 'out']!r}))"
    head = "import sys\n" + ("sys.modules['scipy'] = None\n" if block_scipy else "")
    proc = subprocess.run(
        [sys.executable, "-c", head + code], cwd=workdir, env=ENV, capture_output=True, timeout=600
    )
    files = {p.relative_to(workdir).as_posix(): p.read_bytes() for p in workdir.rglob("*")
             if p.is_file()}
    return {"exit code": str(proc.returncode).encode(), "stdout": proc.stdout,
            "stderr": proc.stderr, **files}


def verdict(trees: list, argv) -> str | None:
    """What is wrong with one check's outputs, or None: run 1 is the reference."""
    first = trees[0]
    if int(first["exit code"]) not in ((0, 1) if argv[:2] in MAY_FAIL else (0,)):
        return f"exit code {int(first['exit code'])}: {first['stderr'].decode().strip()[-300:]}"
    for i, tree in enumerate(trees[1:], 2):
        for name in sorted(first.keys() | tree.keys()):
            if first.get(name) != tree.get(name):
                return f"{name} differs between run 1 and run {i} of {len(trees)}"
    return None


def digest(tree: dict) -> str:
    return hashlib.sha256(repr(sorted(tree.items())).encode()).hexdigest()


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, argvs) in enumerate(CHECKS):
            start = time.perf_counter()
            runs = [*((a, False) for a in argvs), (argvs[0], False), (argvs[0], True)]
            trees = [run(a, Path(tmp, f"{i}.{j}"), block) for j, (a, block) in enumerate(runs)]
            problem = verdict(trees, argvs[0])
            failed |= problem is not None
            line = f"{digest(trees[0])} {time.perf_counter() - start:.1f}s {name}"
            print(f"FAIL {line}: {problem}" if problem else f"ok {line}", flush=True)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
