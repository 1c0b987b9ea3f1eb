"""Small file helpers shared across the package."""

from __future__ import annotations

import os
import tempfile
from typing import Iterable


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write text, or the strings of an iterable in turn, to ``path`` via
    a temp file and rename.

    A failed run never leaves a truncated file behind, also when the
    iterable raises part way.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
