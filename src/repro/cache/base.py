"""Cache-model interface and statistics.

All cache models consume *chunked* NumPy address arrays (never one Python
call per reference — see DESIGN.md section 6) and support a ``miss_budget``
early-exit so the simulation engine can stop exactly at the reference whose
miss overflows a hardware counter, which is what makes interrupt delivery
points exact rather than chunk-granular.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cache.config import CacheConfig


@dataclass
class CacheStats:
    """Running totals for one cache model."""

    accesses: int = 0
    misses: int = 0
    #: Dirty lines written back to memory on eviction (write-back model).
    writebacks: int = 0
    #: Prefetch fills issued (next-line prefetcher, when enabled).
    prefetches: int = 0
    #: Per-category totals, keyed by the ``tag`` passed to ``access``
    #: ("app" for application references, "instr" for instrumentation).
    accesses_by_tag: dict[str, int] = field(default_factory=dict)
    misses_by_tag: dict[str, int] = field(default_factory=dict)
    #: Per-mechanism event counters for decorator components (see
    #: :mod:`repro.cache.components`): ``vc_hits``/``vc_probes``,
    #: ``mc_hits``/``mc_probes``, ``sb_hits``/``sb_probes``/
    #: ``sb_prefetches``. Empty for plain caches; merged key-wise like
    #: the per-tag dicts.
    mechanism: dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def record(
        self,
        tag: str,
        accesses: int,
        misses: int,
        writebacks: int = 0,
        prefetches: int = 0,
        mechanism: dict[str, int] | None = None,
    ) -> None:
        """Add one chunk's event counts (the only mutation entry point).

        All counter movement goes through here (or :meth:`merge`) so the
        per-tag attribution and :meth:`snapshot` semantics can't be
        bypassed; under ``REPRO_SANITIZE=1`` the ledger identities of
        :mod:`repro.sanitize.ledger` catch a write that went around it.
        """
        self.accesses += accesses
        self.misses += misses
        self.writebacks += writebacks
        self.prefetches += prefetches
        self.accesses_by_tag[tag] = self.accesses_by_tag.get(tag, 0) + accesses
        self.misses_by_tag[tag] = self.misses_by_tag.get(tag, 0) + misses
        if mechanism:
            for event, count in mechanism.items():
                self.mechanism[event] = self.mechanism.get(event, 0) + count

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current totals.

        Consumers that read totals at a known point (e.g. the engine
        freezing instrumentation counts at stream end, before tool
        teardown hooks run) snapshot instead of holding a live reference,
        so later recording can never drift what they observed.
        """
        return CacheStats(
            accesses=self.accesses,
            misses=self.misses,
            writebacks=self.writebacks,
            prefetches=self.prefetches,
            accesses_by_tag=dict(self.accesses_by_tag),
            misses_by_tag=dict(self.misses_by_tag),
            mechanism=dict(self.mechanism),
        )

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Add ``other``'s totals into this object (returns ``self``).

        Used to combine per-level stats of a hierarchy into one view;
        per-tag dicts are merged key-wise.
        """
        self.accesses += other.accesses
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.prefetches += other.prefetches
        for tag, count in other.accesses_by_tag.items():
            self.accesses_by_tag[tag] = self.accesses_by_tag.get(tag, 0) + count
        for tag, count in other.misses_by_tag.items():
            self.misses_by_tag[tag] = self.misses_by_tag.get(tag, 0) + count
        for event, count in other.mechanism.items():
            self.mechanism[event] = self.mechanism.get(event, 0) + count
        return self


class AccessResult(NamedTuple):
    """Result of a (possibly budget-limited) chunk access.

    ``miss_mask`` covers only the ``consumed`` leading references of the
    chunk; references past ``consumed`` were *not* applied to the cache.
    """

    miss_mask: np.ndarray
    consumed: int

    @property
    def n_misses(self) -> int:
        return int(self.miss_mask.sum())


class CacheModel(abc.ABC):
    """Abstract single-level cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()

    @abc.abstractmethod
    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        """Run a chunk of byte addresses through the cache.

        ``addrs`` is a uint64 array; references are applied in order. If
        ``miss_budget`` is given, processing stops immediately after the
        budget-th miss and ``consumed`` reports how many references were
        applied (the rest must be resubmitted by the caller). ``writes``
        optionally marks store references (same length as ``addrs``);
        models with write-back semantics use it to track dirty lines.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Empty the cache (cold start) without clearing statistics."""

    @abc.abstractmethod
    def contents_line_count(self) -> int:
        """Number of valid lines currently cached (for tests/diagnostics)."""

    def warm_fraction(self) -> float:
        """Fraction of the cache currently holding valid lines."""
        return self.contents_line_count() / self.config.n_lines
