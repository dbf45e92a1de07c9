"""Replace output files whole, so a crash never leaves half of one."""
from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def open_atomic(path: str | Path, mode: str = "w", **kwargs):
    """Open a file for writing whose content appears at ``path`` all at once.

    Writes go to a fresh temporary file in the same directory (so the
    final ``os.replace`` stays within one file system), opened with the
    given ``open`` mode and keyword arguments. When the block exits
    normally the file replaces ``path``; when it raises, the temporary
    file is removed and ``path`` keeps its old content, or stays absent.
    This guards against the process dying mid-write; the data is not
    fsynced, so it promises nothing across a power loss.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, mode.replace("w", "x"), **kwargs) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
