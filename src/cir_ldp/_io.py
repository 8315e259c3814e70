"""Atomic artifact writes."""

from __future__ import annotations

import os
import secrets


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 so no reader ever sees a partial file.

    The text goes to a new temporary file in the destination's directory,
    which then replaces ``path`` in one ``os.replace``.  Newlines are written
    as given.  On any error the temporary file is removed and ``path`` keeps
    its previous content (or stays absent).
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
