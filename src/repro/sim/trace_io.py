"""Record/replay of reference traces as compressed ``.npz`` archives.

Workloads are deterministic generators, but saving a trace lets an
experiment be re-run against different cache geometries or tools without
regenerating references, and lets external traces (if a user has real
ones) be fed through the same engine.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.sim.blocks import ReferenceBlock

_FORMAT_VERSION = 1


def save_trace(path: str | Path, blocks: list[ReferenceBlock]) -> None:
    """Write blocks to ``path`` as an ``.npz`` archive with a JSON manifest."""
    path = Path(path)
    manifest = {
        "version": _FORMAT_VERSION,
        "blocks": [
            {
                "cycles_per_ref": block.cycles_per_ref,
                "label": block.label,
                "extra_cycles": block.extra_cycles,
                "has_writes": block.writes is not None,
            }
            for block in blocks
        ],
    }
    arrays: dict[str, np.ndarray] = {}
    for i, block in enumerate(blocks):
        arrays[f"addrs_{i}"] = block.addrs
        if block.writes is not None:
            arrays[f"writes_{i}"] = block.writes
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def load_trace(path) -> list[ReferenceBlock]:
    """Read blocks previously written by :func:`save_trace`.

    ``path`` is a filesystem path or a seekable binary file object (the
    compressed-trace importer decompresses ``.npz.gz`` archives into
    memory and loads them from a buffer named after the file). Any
    damage to the archive raises :class:`TraceError` naming the file.
    """
    if hasattr(path, "read"):
        source, path = path, getattr(path, "name", "<trace buffer>")
    else:
        source = path = Path(path)
    try:
        with np.load(source) as archive:
            if "manifest" not in archive:
                raise TraceError(f"{path} has no manifest — not a repro trace")
            manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
            if manifest.get("version") != _FORMAT_VERSION:
                raise TraceError(
                    f"{path}: unsupported trace version {manifest.get('version')}"
                )
            blocks: list[ReferenceBlock] = []
            for i, meta in enumerate(manifest["blocks"]):
                addrs = archive[f"addrs_{i}"]
                if addrs.dtype != np.uint64:
                    raise TraceError(
                        f"{path}: block {i} holds {addrs.dtype} addresses, "
                        "not uint64"
                    )
                writes = archive[f"writes_{i}"] if meta["has_writes"] else None
                blocks.append(
                    ReferenceBlock(
                        addrs=addrs,
                        cycles_per_ref=meta["cycles_per_ref"],
                        writes=writes,
                        label=meta["label"],
                        extra_cycles=meta["extra_cycles"],
                    )
                )
            return blocks
    except TraceError:
        raise
    except Exception as exc:
        # zipfile, the decompressor a member names and the .npy parser all
        # read untrusted bytes: a damaged archive can raise almost anything.
        raise TraceError(f"cannot load trace {path}: {exc!r}") from exc
