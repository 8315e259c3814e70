"""The library runs on numpy alone: no module of it loads scipy, and an import
of the CLI loads nothing that a run on one worker does not use."""

from __future__ import annotations

import ast
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


def test_modules_import_only_the_standard_library_numpy_and_the_package():
    # Every import statement of every module, wherever it sits: the blocked
    # scipy run above would miss any other third-party import.
    allowed = {*sys.stdlib_module_names, "numpy", "cir_ldp"}
    foreign = []
    for path in sorted(Path(cir_ldp.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []


# The package's modules, lowest first: each imports at run time only the
# modules before it, so the ensemble sampler in cir_model reduces its paths
# into functionals' record, and functionals needs nothing from the sampler.
_LAYERS = (
    "errors", "_elementwise", "_io", "_simplex", "functionals",
    "cir_model", "cgf", "rates", "harness", "cli",
)


def _runtime_nodes(tree: ast.Module):
    # Every node of a module but the bodies of ``if TYPE_CHECKING:``.
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(test, "id", None), getattr(test, "attr", None)
        ):
            stack.extend(node.orelse)
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _package_imports(node) -> list[str]:
    # The package modules an import statement names, as relative or
    # absolute imports; "from . import x" names x.
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("cir_ldp.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0 and node.module is not None and node.module.startswith("cir_ldp"):
        module = node.module.removeprefix("cir_ldp").lstrip(".")
    elif node.level == 1:
        module = node.module or ""
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_modules_import_only_lower_layers():
    package = Path(cir_ldp.__file__).parent
    assert {p.stem for p in package.glob("*.py")} == {*_LAYERS, "__init__"}
    upward = []
    for i, name in enumerate(_LAYERS):
        path = package / f"{name}.py"
        for node in _runtime_nodes(ast.parse(path.read_text(), str(path))):
            for imported in _package_imports(node):
                allowed = imported in _LAYERS[:i] or (name, imported) == ("cli", "__version__")
                if not allowed:
                    upward.append((name, imported))
    assert upward == []
