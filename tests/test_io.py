"""Atomic artifact writes."""

from __future__ import annotations

import pytest

from cir_ldp._io import write_text_atomic


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
