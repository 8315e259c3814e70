"""Byte-identical reruns: ``python ci/reruns.py`` (no arguments).

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

``-h`` or ``--help`` prints this text and exits 0; any other argument prints
it to stderr and exits 2.  Neither runs a check.
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
# The same run with the step count spelt as a float: a flag's text is read as
# the number it spells, as a config file's value is.
SIM_FLOAT_STEPS = [("37.0" if arg == "37" else arg) for arg in SIM]
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
# Lambda and its gradient at each parameter set, in each sector (lam^2/(d-b),
# gamma^2/phi, neither, and lam > 0 > gamma on either side of the switching
# surface) and outside the domain, where the gradient exits 3: through the
# cli, and as the library's bits.
CGF_POINTS = f"""\
from cir_ldp import BoundaryError, CgfPoint, ProcessParams, cgf_gradient, cgf_limit
from cir_ldp.cli import main
points = [("-0.5", "-0.3", "-0.2", "0.4"), ("0.7", "-0.3", "-0.2", "0"),
          ("0", "-0.3", "-0.2", "-0.6"), ("0.8", "-0.4", "-0.7", "-0.1"),
          ("0.1", "-0.4", "-0.7", "-1.5"), ("0.3", "5", "0", "0")]
for a, b in {SETS!r}:
    for lam, mu, nu, gamma in points:
        for extra in ([], ["--gradient"]):
            argv = ["cgf", "--a", a, "--b", b, "--lam", lam, "--mu", mu, "--nu", nu,
                    "--gamma", gamma, *extra]
            print(*argv[1:], main(argv), flush=True)
        p, theta = ProcessParams(float(a), float(b)), CgfPoint(*map(float, (lam, mu, nu, gamma)))
        try:
            grad = [g.hex() for g in cgf_gradient(p, theta).tolist()]
        except BoundaryError as exc:
            grad = str(exc)
        print(cgf_limit(p, theta).hex(), grad, flush=True)
"""
# Every rate selector at one point that gives each its seven coordinates,
# at each parameter set, and the --help text of the parser and of each
# command.
RATES_AND_HELP = f"""\
from cir_ldp.cli import main
point = ["--alpha", "3", "--beta", "-0.7", "--x", "4", "--y", "1.2", "--z", "0.9",
         "--t", "-0.3", "--v", "1.5"]
for a, b in {SETS!r}:
    for which in ("J", "K", "I", "Ja", "Jb", "Ka", "Kb", "Ia", "Ib", "S", "Sigma", "V",
                  "pair", "triplet_x", "triplet_L"):
        argv = ["rate", "--a", a, "--b", b, "--which", which, *point]
        print(*argv[1:], main(argv), flush=True)
for command in ([], ["simulate"], ["estimate"], ["rate"], ["cgf"], ["check"], ["figures"]):
    print(*command, "--help", main([*command, "--help"]), flush=True)
"""
# The path record's fields and its four estimates as hex: of a seeded
# ensemble (its terminal states too), and of the paths cir-ldp simulate
# writes, read back, at x0 = 1 and at x0 = 2.5.
PATH_RECORD = f"""\
import glob
import numpy as np
from cir_ldp import (ESTIMATORS, ProcessParams, compute_functionals, read_trajectory_csv,
                     simulate_ensemble)
from cir_ldp.cli import main

def show(pf, names):
    for name in names:
        print(name, [v.hex() for v in np.atleast_1d(getattr(pf, name)).tolist()])
    for name, fn in ESTIMATORS.items():
        est = fn(pf)
        print(name, [v.hex() for v in np.atleast_1d([est.alpha, est.beta]).ravel().tolist()])

fields = ("T", "xT_over_T", "sqrt_xT_over_T", "S", "Sigma", "L", "curlyL", "V")
for a, b in {SETS!r}:
    for x0 in ("1", "2.5"):
        p = ProcessParams(float(a), float(b), float(x0))
        print(a, b, x0, flush=True)
        show(simulate_ensemble(p, 2.5, 37, 300, 7), (*fields, "x_T"))
        out = f"out_{{a}}_{{b}}_{{x0}}"
        argv = ["simulate", "--a", a, "--b", b, "--x0", x0, "--T", "2.5", "--n-steps", "37",
                "--paths", "3", "--seed", "7", "--out", out]
        print(*argv, main(argv), flush=True)
        for path in sorted(glob.glob(out + "/*.csv")):
            print(path)
            show(compute_functionals(read_trajectory_csv(path, p)), fields)
"""
# The last grid takes both branches of J and of K at every set, so it holds
# the branch seams byte for byte.
PER_SET = [["check", "continuity"], ["check", "infsup"], ["check", "legendre"],
           ["figures", "--fig", "3"],
           ["rate", "--which", "I", "--grid", "--alpha-min", "-1", "--alpha-max", "5",
            "--beta-min", "-4", "--beta-max", "1"]]
CHECKS = [
    *((f"{' '.join(c)} ({a}, {b})", [[*c, "--a", a, "--b", b]]) for a, b in SETS for c in PER_SET),
    ("figures --fig 1", [["figures", "--fig", "1", *AB]]),
    ("rate --which I --grid", [["rate", "--which", "I", "--grid", *AB]]),
    ("simulate: 1 worker, 2 workers, config file", [
        [*SIM, "--workers", "1"], [*SIM, "--workers", "2"],
        ["simulate", "--config", str(CI / "simulate.json")], SIM_FLOAT_STEPS,
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
    ("cgf and cgf --gradient in each sector", [CGF_POINTS]),
    ("rate: every selector; --help of every command", [RATES_AND_HELP]),
    ("path record bits", [PATH_RECORD]),
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


def main(argv=()) -> int:
    if argv:
        asked = list(argv) in (["-h"], ["--help"])
        print(__doc__, end="", file=sys.stdout if asked else sys.stderr)
        return 0 if asked else 2
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
    sys.exit(main(sys.argv[1:]))
