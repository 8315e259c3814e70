"""The rerun script ci/reruns.py: its table and its verdicts, with no subprocess.

The script itself starts about 80 interpreters (about 25 s), so it runs
outside Tier-1.  Here a renamed flag in its table, or a verdict that misses a
changed byte, a missing or extra file or a different exit code, fails.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from cir_ldp import cli

_spec = importlib.util.spec_from_file_location(
    "reruns", Path(__file__).resolve().parent.parent / "ci" / "reruns.py"
)
reruns = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reruns)

_RUNS = [(f"{name} #{k}", argv) for name, argvs in reruns.CHECKS for k, argv in enumerate(argvs, 1)]


@pytest.mark.parametrize("argv", [r[1] for r in _RUNS], ids=[r[0] for r in _RUNS])
def test_every_run_in_the_table_parses(argv):
    if isinstance(argv, str):
        compile(argv, "<snippet>", "exec")
        return
    ns = cli.build_parser().parse_args([*argv, "--out", "out"])
    cli.parse_config(ns)


def _tree(**changes) -> dict:
    tree = {"exit code": b"0", "stdout": b"{}\n", "stderr": b"", "out/fig3.csv": b"v,Ia\n1,2\n"}
    tree.update(changes)
    return {k: v for k, v in tree.items() if v is not None}


@pytest.mark.parametrize(
    "changes, named",
    [
        ({"out/fig3.csv": b"v,Ia\n1,3\n"}, "out/fig3.csv"),
        ({"out/fig3.csv": None}, "out/fig3.csv"),
        ({"out/fig4.csv": b""}, "out/fig4.csv"),
        ({"exit code": b"1"}, "exit code"),
        ({"stdout": b"{ }\n"}, "stdout"),
    ],
    ids=["changed byte", "missing file", "extra file", "exit code", "stdout"],
)
def test_verdict_names_what_differs(changes, named):
    assert reruns.verdict([_tree(), _tree()], ["figures"]) is None
    problem = reruns.verdict([_tree(), _tree(), _tree(**changes)], ["figures"])
    assert problem == f"{named} differs between run 1 and run 3 of 3"


def test_verdict_allows_exit_1_only_for_clt_and_slope():
    failed = _tree(**{"exit code": b"1"})
    assert reruns.verdict([failed, failed], ["check", "slope"]) is None
    assert reruns.verdict([failed, failed], ["check", "clt"]) is None
    assert reruns.verdict([failed, failed], ["check", "infsup"]).startswith("exit code 1")
    crashed = _tree(**{"exit code": b"2", "stderr": b'{"error": "ConfigError"}\n'})
    assert reruns.verdict([crashed, crashed], ["check", "slope"]).endswith("ConfigError\"}")


@pytest.mark.parametrize("bad_run, expected", [(None, 0), (2, 1), (3, 1)])
def test_main_runs_each_check_three_times_and_fails_on_a_difference(
    monkeypatch, capsys, bad_run, expected
):
    calls = []

    def fake_run(argv, workdir, block_scipy=False):
        calls.append((argv, block_scipy))
        return _tree(**({"out/fig3.csv": b""} if len(calls) == bad_run else {}))

    monkeypatch.setattr(reruns, "CHECKS", [("figures --fig 3", [["figures", "--fig", "3"]])])
    monkeypatch.setattr(reruns, "run", fake_run)
    assert reruns.main() == expected
    argv = ["figures", "--fig", "3"]
    assert calls == [(argv, False), (argv, False), (argv, True)]
    line = capsys.readouterr().out
    assert line.split()[:2] == ["FAIL" if expected else "ok", reruns.digest(_tree())]
    if expected:
        assert line.endswith(f"out/fig3.csv differs between run 1 and run {bad_run} of 3\n")
