"""Artifact formats: the JSON report envelope, atomic writes and CSV tables;
csv_text writes every CSV table, trajectory files included."""

from __future__ import annotations

import functools
import os
from dataclasses import asdict
from typing import Sequence

import numpy as np


def report(experiment: str, params, settings: dict, metrics, passed: bool = True) -> dict:
    """The envelope of every JSON report.

    ``params`` is a ``ProcessParams``, written as its fields ``a``, ``b`` and
    ``x0``; ``settings`` holds the inputs of the run, ``metrics`` its
    results, and ``pass`` the verdict (true for commands that check nothing).
    """
    return {
        "experiment": experiment,
        "params": asdict(params),
        "settings": settings,
        "metrics": metrics,
        "pass": passed,
    }


def _cells(column) -> list[str]:
    # A float as its shortest round-trip repr, anything else with str.
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return list(map(repr, column.tolist()))
        column = column.tolist()
    return [repr(float(v)) if isinstance(v, float) else str(v) for v in column]


@functools.lru_cache(maxsize=1)
def _row_heads(column: bytes) -> tuple[str, ...]:
    # "\n" + cell + "," per row of a float64 first column, keyed by its bytes.
    return tuple(["\n" + c + "," for c in _cells(np.frombuffer(column))])


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """A CSV table of two or more equal-length columns, with LF line ends.

    A float is written as its shortest round-trip ``repr`` (``inf``, ``-inf``
    and ``nan`` as words), anything else with ``str``.  The row heads of the
    last float64 first column are kept: 300 KB for a grid of 4 001 times.
    """
    first, *rest = columns
    if isinstance(first, np.ndarray) and first.dtype == np.float64:
        heads = _row_heads(first.tobytes())
    else:
        heads = ["\n" + c + "," for c in _cells(first)]
    stride = 2 * len(rest)  # a row: its head, then its other cells and commas
    parts = [","] * (stride * len(heads))
    parts[::stride] = heads
    for j, column in enumerate(rest):
        parts[2 * j + 1 :: stride] = _cells(column)
    return ",".join(header) + "".join(parts) + "\n"


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 so no reader ever sees a partial file.

    The text goes to a new temporary file in the destination's directory,
    which then replaces ``path`` in one ``os.replace``.  Newlines are written
    as given.  On any error the temporary file is removed and ``path`` keeps
    its previous content (or stays absent).
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
