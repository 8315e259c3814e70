"""Artifact formats: atomic writes, CSV tables and the report envelope."""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from cir_ldp import ProcessParams
from cir_ldp._io import _row_heads, csv_text, report, write_text_atomic
from cir_ldp.cir_model import path_rng, simulate_path, write_trajectory_csv
from cir_ldp.cli import main
from cir_ldp.harness import profile_curves, surface_grid


def test_writes_exact_bytes_and_leaves_no_temporary_file(tmp_path):
    dest = tmp_path / "out.csv"
    dest.write_bytes(b"old content\n")
    text = "alpha,beta\n1.5,-0.25\nnon-ascii é\n"
    write_text_atomic(dest, text)
    assert dest.read_bytes() == text.encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_failed_write_keeps_previous_file(tmp_path):
    dest = tmp_path / "report.json"
    dest.write_bytes(b"{}\n")
    with pytest.raises(TypeError):
        write_text_atomic(str(dest), None)
    assert dest.read_bytes() == b"{}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_missing_directory_raises_and_creates_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_text_atomic(tmp_path / "absent" / "x.csv", "x\n")
    assert list(tmp_path.iterdir()) == []


def test_csv_text_writes_floats_as_shortest_repr_and_others_with_str():
    columns = [
        [0, 1, 2, 3, 4, 5],
        ["mle", "tilde", "check", "a", "b", "c"],
        [1.5, 0.1 + 0.2, np.float64(-0.25), math.inf, -math.inf, math.nan],
    ]
    assert csv_text(("path_id", "estimator", "x"), columns) == (
        "path_id,estimator,x\n"
        "0,mle,1.5\n"
        "1,tilde,0.30000000000000004\n"
        "2,check,-0.25\n"
        "3,a,inf\n"
        "4,b,-inf\n"
        "5,c,nan\n"
    )
    assert csv_text(("t", "x"), ([], [])) == "t,x\n"


def test_csv_text_writes_arrays_as_their_lists():
    # A float64 array, first column or not, gives the cells of its tolist;
    # so does an int array or a float array of another width.
    t = np.array([0.0, 0.1 + 0.2, -0.0, math.inf, math.nan])
    ints = np.arange(5)
    halves = np.array([0.1, 1.0, 2.5, -1.0, 0.0], dtype=np.float32)
    for first, second in ((t, ints), (ints, t), (halves, t), (t, halves)):
        expected = csv_text(("u", "v"), (first.tolist(), second.tolist()))
        assert csv_text(("u", "v"), (first, second)) == expected
    assert csv_text(("t", "x"), (t, t)).splitlines()[1:] == [
        "0.0,0.0", "0.30000000000000004,0.30000000000000004", "-0.0,-0.0", "inf,inf", "nan,nan",
    ]


def test_csv_text_keeps_one_first_column():
    # The row heads of the last float64 first column are cached; another
    # grid replaces them, and the same grid again is formatted once.
    _row_heads.cache_clear()
    grid, other = np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 11)
    values = np.arange(11.0)
    first = csv_text(("t", "x"), (grid, values))
    assert csv_text(("t", "x"), (grid.copy(), values)) == first
    assert _row_heads.cache_info()[:2] == (1, 1)
    csv_text(("t", "x"), (other, values))
    assert _row_heads.cache_info().currsize == 1
    assert csv_text(("t", "x"), (grid, values)) == first
    assert _row_heads.cache_info()[:2] == (1, 3)


@pytest.mark.parametrize(
    "columns",
    [([1.0, 2.0], [1.0]), ([1.0], [1.0, 2.0]), (np.zeros(3), np.zeros(2), np.zeros(3)), (np.zeros(3),)],
    ids=["short second", "long second", "short third", "one column"],
)
def test_csv_text_refuses_unequal_or_single_columns(columns):
    with pytest.raises(ValueError):
        csv_text(("a", "b", "c")[: len(columns)], columns)


# sha256 of four CSV texts as written before csv_text took columns: the
# tables keep every byte.
_CSV_GOLDENS = {
    "trajectory": "254506cb008ca94a3bc6f992b4ad1b0b3d05a467a9d8f082120eff0f2a76f9f8",
    "surface": "7e054048c7e3bd14cf875f9786ee5ce58c632497e5d5ee05fd769b93cf9c1624",
    "profile": "219efa134798efd90d0d33c76c88d985ebe7984fa92655b10012f093b4116722",
    "estimate": "f1e54457df1a0b66e4e0583083704ac5ec52445699ed1aeac1317da2253dabe4",
}


def test_csv_tables_keep_their_bytes(tmp_path, capsys):
    params = ProcessParams(4.0, -1.0)
    write_trajectory_csv(simulate_path(params, 2.5, 37, path_rng(11, 3)), str(tmp_path / "t.csv"))
    argv = ["estimate", "--a", "4", "--b", "-1", "--T", "1", "--n-steps", "20",
            "--paths", "3", "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    texts = {
        "trajectory": (tmp_path / "t.csv").read_bytes(),
        "surface": surface_grid(params).to_csv().encode(),
        "profile": profile_curves(params).to_csv().encode(),
        "estimate": (tmp_path / "estimates.csv").read_bytes(),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in texts.items()} == _CSV_GOLDENS


def test_report_is_the_five_key_envelope():
    params = ProcessParams(3.0, -2.0, 0.5)
    payload = report("demo", params, {"seed": 7}, {"value": 1.25})
    assert payload == {
        "experiment": "demo",
        "params": asdict(params),
        "settings": {"seed": 7},
        "metrics": {"value": 1.25},
        "pass": True,
    }
    assert payload["params"] == {"a": 3.0, "b": -2.0, "x0": 0.5}
    assert report("demo", params, {}, {}, passed=False)["pass"] is False
