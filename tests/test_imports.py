"""The library runs on numpy alone: no module of it loads scipy, and an import
of the CLI loads nothing that a run on one worker does not use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import cir_ldp
from cir_ldp import ProcessParams, rate_marginal
from cir_ldp.cli import _fmt_value

_SRC = str(Path(cir_ldp.__file__).resolve().parent.parent)


def _run(code: str, cwd: Path) -> subprocess.CompletedProcess:
    # A fresh interpreter, so no module this test session imported counts.
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_import_loads_no_scipy(tmp_path):
    proc = _run(
        "import sys, cir_ldp, cir_ldp.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_runs_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every import of scipy raise.
    proc = _run(
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from cir_ldp import cli\n"
        "rc = cli.main(['check', 'continuity', '--a', '4', '--b', '-1', '--out', 'out'])\n"
        "assert rc == 0, rc\n"
        "assert cli.main(['rate', '--which', 'Kb', '--beta', '-0.5', '--a', '4', '--b', '-1']) == 0\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "continuity_report.json").is_file()
    kb = _fmt_value(rate_marginal(ProcessParams(4.0, -1.0), "Kb", -0.5))
    assert proc.stdout.splitlines()[-1] == kb


def test_import_loads_no_process_pool_or_secrets(tmp_path):
    # The process pool is imported where a run starts one; temporary file
    # names come from os.urandom.
    proc = _run(
        "import sys, cir_ldp.cli\n"
        "heavy = ('multiprocessing', 'concurrent.futures', 'secrets')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
