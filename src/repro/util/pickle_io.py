"""Pickle files for the on-disk stores: results, streams, checkpoints
and session snapshots.

Every store writes through :func:`dump_atomic`, so a reader finds the
old file or the whole new one, never a torn write. The result, stream
and checkpoint stores read through :func:`load_or_discard`, which
deletes a file it cannot unpickle: a damaged entry is probed once, then
recomputed.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path

__all__ = ["dump_atomic", "load_or_discard"]


def dump_atomic(path: Path, value: object) -> Path:
    """Pickle ``value`` to ``path`` by renaming a finished temporary file
    of the same directory into place. If pickling or writing fails, the
    temporary file is removed and ``path`` keeps what it held."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    return path


def load_or_discard(path: Path) -> object | None:
    """The value pickled at ``path``, or None: when there is no file, and
    after deleting a file that does not unpickle."""
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        return None
    except Exception:  # unpickling damaged bytes can raise anything
        path.unlink(missing_ok=True)
        return None
