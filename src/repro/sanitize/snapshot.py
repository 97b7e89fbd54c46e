"""Pickle-roundtrip canary on session snapshots.

A checkpoint is only as good as what ``pickle`` preserves: an object
whose ``__reduce__`` silently drops state produces a snapshot that
*loads* fine and then resumes a subtly different run. Before a snapshot
is trusted (returned to the caller / written to disk), the canary
roundtrips it once more and compares what must survive, for the
snapshot's format stamp and round-robin pointer and for *every* core:

* the resume cursor (workload name, block cursor, refs budget, chunk
  size), the interleaver weight and the per-object contention tallies;
* the run statistics scalars;
* the cache: ledger equality (``CacheStats`` compares field-wise) and
  state cardinalities (resident and dirty line counts).

The comparisons are duck-typed — this module must not import
:mod:`repro.sim` (the session calls *us* from its snapshot path).
"""

from __future__ import annotations

import pickle

from repro.sanitize import SanitizerError, count_check

__all__ = ["snapshot_canary"]

#: CoreState fields holding plain data (== is exact).
_PLAIN_FIELDS = (
    "core_id",
    "address_offset",
    "workload_name",
    "blocks_fetched",
    "block_pos",
    "refs_left",
    "chunk_size",
    "ratio",
    "self_by_object",
    "contention_by_object",
    "unattributed_self",
    "unattributed_contention",
)

_STATS_SCALARS = (
    "app_refs",
    "app_misses",
    "instr_refs",
    "instr_misses",
    "app_cycles",
    "instr_cycles",
)


def _cache_fingerprint(cache: object) -> tuple[object, ...]:
    return (
        cache.stats,
        cache.contents_line_count(),
        getattr(cache, "dirty_line_count", lambda: None)(),
    )


def _compare(where: str, before: object, after: object) -> None:
    if before != after:
        raise SanitizerError(
            f"snapshot {where} changed across a pickle roundtrip: "
            f"{before!r} -> {after!r}"
        )


def snapshot_canary(snapshot: object) -> None:
    """Roundtrip ``snapshot`` through pickle and verify it survived."""
    count_check("snapshot.canary")
    try:
        clone = pickle.loads(
            pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        )
    except Exception as exc:
        raise SanitizerError(
            f"snapshot does not survive a pickle roundtrip: {exc!r}"
        ) from exc
    for name in ("version", "next_core"):
        _compare(f"field {name!r}", getattr(snapshot, name), getattr(clone, name))
    _compare("core count", len(snapshot.cores), len(clone.cores))
    for i, (core, copy) in enumerate(zip(snapshot.cores, clone.cores)):
        for name in _PLAIN_FIELDS:
            _compare(
                f"core {i} field {name!r}", getattr(core, name), getattr(copy, name)
            )
        for name in _STATS_SCALARS:
            _compare(
                f"core {i} stats.{name}",
                getattr(core.stats, name, None),
                getattr(copy.stats, name, None),
            )
        _compare(
            f"core {i} cache state",
            _cache_fingerprint(core.cache),
            _cache_fingerprint(copy.cache),
        )
