"""Artifact formats: the JSON report envelope, CSV tables and atomic writes."""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Iterable, Sequence


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


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV table: the header line, then one line per row, with LF line ends.

    Floats are written as their shortest round-trip ``repr`` (so ``inf``,
    ``-inf`` and ``nan`` come out as those words), other values with ``str``.
    """
    lines = [",".join(header)]
    lines.extend(
        ",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
        for row in rows
    )
    return "\n".join(lines) + "\n"


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
