"""Artifact formats: atomic writes, CSV tables and the report envelope."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from cir_ldp import ProcessParams
from cir_ldp._io import csv_text, report, write_text_atomic


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
    rows = [
        (0, "mle", 1.5),
        (1, "tilde", 0.1 + 0.2),
        (2, "check", np.float64(-0.25)),
        (3, "a", math.inf),
        (4, "b", -math.inf),
        (5, "c", math.nan),
    ]
    assert csv_text(("path_id", "estimator", "x"), rows) == (
        "path_id,estimator,x\n"
        "0,mle,1.5\n"
        "1,tilde,0.30000000000000004\n"
        "2,check,-0.25\n"
        "3,a,inf\n"
        "4,b,-inf\n"
        "5,c,nan\n"
    )
    assert csv_text(("t", "x"), []) == "t,x\n"


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
