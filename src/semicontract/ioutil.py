"""Atomic file output helpers (temp file + rename in the target directory)."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def atomic_write_text(path, chunks) -> None:
    """Write the strings of the iterable chunks, in order, as the file path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, document) -> None:
    atomic_write_text(path, [json.dumps(document, indent=2) + "\n"])
