"""Per-reference model of mechanism-decorated cache stacks (test oracle).

Production decorators run the wrapped cache chunk-wise on any kernel and
walk only its miss stream (``repro.cache.components``). This module is
the independent definition they are held to: every component takes one
line at a time and reports ``(miss, evicted)``, exactly as the scalar
protocol the decorators were first written against. It mirrors
``make_cache``: a set-associative leaf (LRU/FIFO/RANDOM), an optional
filtering L1 in front, and VC/MC/SB decorators with the last-listed
outermost. RANDOM evictions pop from a pool of fresh draws that is
refilled (4096 at a time) only when it runs dry, so draws depend on the
eviction count alone.

Each oracle component keeps a real :class:`~repro.cache.base.CacheStats`
ledger, committed once per ``access`` call like the production stack, so
tests can compare ``component_ledgers()`` field for field.
"""

from __future__ import annotations

import numpy as np

from repro.cache.base import AccessResult, CacheStats
from repro.cache.config import CacheConfig, parse_mechanisms
from repro.cache.policies import ReplacementPolicy
from repro.util.rng import make_rng

#: Draws per pool refill under the refill-on-empty rule.
POOL_REFILL = 4096


class OracleLeaf:
    """Set-associative cache, one reference at a time."""

    def __init__(self, config: CacheConfig, seed: int | None) -> None:
        self.config = config
        self.sets: list[list[int]] = [[] for _ in range(config.n_sets)]
        self.dirty: set[int] = set()
        self.rng = make_rng(seed)
        self.pool: list[int] = []
        self.stats = CacheStats()
        self.misses = 0
        self.writebacks = 0

    def line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        config = self.config
        s = self.sets[line & config.set_mask]
        if line in s:
            if config.policy is ReplacementPolicy.LRU:
                s.remove(line)
                s.append(line)
            if write:
                self.dirty.add(line)
            return False, None
        self.misses += 1
        evicted = None
        if len(s) == config.assoc:
            if config.policy is ReplacementPolicy.RANDOM:
                if not self.pool:
                    self.pool = self.rng.integers(
                        0, config.assoc, size=POOL_REFILL
                    ).tolist()
                evicted = s.pop(self.pool.pop())
            else:
                evicted = s.pop(0)
            if evicted in self.dirty:
                self.dirty.discard(evicted)
                self.writebacks += 1
        s.append(line)
        if write:
            self.dirty.add(line)
        return True, evicted

    def commit(self, tag: str, accesses: int) -> None:
        self.stats.record(tag, accesses, self.misses, writebacks=self.writebacks)
        self.misses = self.writebacks = 0

    def ledgers(self) -> list[tuple[str, CacheStats]]:
        return [("cache", self.stats)]


class OraclePipeline:
    """L1 filtering a leaf; write flags stop at the pipeline."""

    def __init__(self, levels: list[OracleLeaf]) -> None:
        self.levels = levels
        self.stats = levels[-1].stats

    def line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        out: tuple[bool, int | None] = (True, None)
        for level in self.levels:
            out = level.line(line, False)
            if not out[0]:
                return False, None
        return out

    def commit(self, tag: str, accesses: int) -> None:
        for level in self.levels:
            level.commit(tag, accesses)

    def ledgers(self) -> list[tuple[str, CacheStats]]:
        return [(f"l{i + 1}", level.stats) for i, level in enumerate(self.levels)]


class OracleDecorator:
    """Shared ledger plumbing of the three mechanism models."""

    kind = "?"

    def __init__(self, inner, entries: int) -> None:
        self.inner = inner
        self.entries = entries
        self.stats = CacheStats()
        self.misses = self.hits = self.probes = self.prefetches = 0

    def commit(self, tag: str, accesses: int) -> None:
        mechanism = {f"{self.kind}_hits": self.hits, f"{self.kind}_probes": self.probes}
        if self.kind == "sb":
            mechanism["sb_prefetches"] = self.prefetches
        self.stats.record(
            tag, accesses, self.misses, prefetches=self.prefetches, mechanism=mechanism
        )
        self.misses = self.hits = self.probes = self.prefetches = 0
        self.inner.commit(tag, accesses)

    def ledgers(self) -> list[tuple[str, CacheStats]]:
        return [(self.kind, self.stats), *self.inner.ledgers()]


class OracleVictimCache(OracleDecorator):
    kind = "vc"

    def __init__(self, inner, entries: int) -> None:
        super().__init__(inner, entries)
        # Oldest first. A victim already held keeps its place: over
        # stream buffers a line can re-enter the leaf through an SB hit,
        # which never probes the VC, and so be evicted into it twice.
        self.held: list[int] = []

    def _spill(self, evicted: int | None) -> None:
        if evicted is not None and evicted not in self.held:
            self.held.append(evicted)

    def line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        miss, evicted = self.inner.line(line, write)
        if not miss:
            return False, None
        self.probes += 1
        if line in self.held:
            self.held.remove(line)
            self._spill(evicted)
            self.hits += 1
            return False, None
        leaving = None
        self._spill(evicted)
        if len(self.held) > self.entries:
            leaving = self.held.pop(0)
        self.misses += 1
        return True, leaving


class OracleMissCache(OracleDecorator):
    kind = "mc"

    def __init__(self, inner, entries: int) -> None:
        super().__init__(inner, entries)
        self.held: list[int] = []  # least recently used first

    def line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        miss, evicted = self.inner.line(line, write)
        if not miss:
            return False, None
        self.probes += 1
        if line in self.held:
            self.held.remove(line)
            self.held.append(line)
            self.hits += 1
            return False, evicted
        self.held.append(line)
        leaving = evicted
        if len(self.held) > self.entries:
            dropped = self.held.pop(0)
            if leaving is None:
                leaving = dropped
        self.misses += 1
        return True, leaving


class OracleStreamBuffers(OracleDecorator):
    kind = "sb"

    def __init__(self, inner, entries: int, depth: int) -> None:
        super().__init__(inner, entries)
        self.depth = depth
        self.heads: list[int | None] = [None] * entries
        self.lru: list[int] = list(range(entries))

    def line(self, line: int, write: bool = False) -> tuple[bool, int | None]:
        miss, evicted = self.inner.line(line, write)
        if not miss:
            return False, None
        self.probes += 1
        for buf in range(self.entries):
            if self.heads[buf] == line:
                self.heads[buf] = line + 1
                self.prefetches += 1
                self.hits += 1
                self.lru.remove(buf)
                self.lru.append(buf)
                return False, evicted
        buf = self.lru.pop(0)
        self.lru.append(buf)
        self.heads[buf] = line + 1
        self.prefetches += self.depth
        self.misses += 1
        return True, evicted


class OracleStack:
    """The ``CacheModel``-shaped face of an oracle component stack."""

    def __init__(self, top, line_bits: int) -> None:
        self.top = top
        self.line_bits = line_bits

    def access(self, addrs, miss_budget=None, tag="app", writes=None):
        """Walk the chunk one reference at a time, stopping on the
        ``miss_budget``-th miss."""
        lines = (np.asarray(addrs, dtype=np.uint64) >> np.uint64(self.line_bits)).tolist()
        flags = writes.tolist() if writes is not None else [False] * len(lines)
        mask = np.zeros(len(lines), dtype=bool)
        consumed = len(lines)
        misses = 0
        for i, line in enumerate(lines):
            if self.top.line(line, flags[i])[0]:
                mask[i] = True
                misses += 1
                if misses == miss_budget:
                    consumed = i + 1
                    break
        self.top.commit(tag, consumed)
        return AccessResult(mask[:consumed], consumed)

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        return self.top.ledgers()


def build_oracle(
    config: CacheConfig, seed: int | None, l1_config: CacheConfig | None = None
) -> OracleStack:
    """The oracle twin of ``make_cache(config, seed, l1_config)``."""
    if l1_config is not None:
        top = OraclePipeline(
            [
                OracleLeaf(l1_config, None if seed is None else seed + 1),
                OracleLeaf(config, seed),
            ]
        )
    else:
        top = OracleLeaf(config, seed)
    for spec in parse_mechanisms(config.mechanisms):
        if spec.kind == "vc":
            top = OracleVictimCache(top, spec.entries)
        elif spec.kind == "mc":
            top = OracleMissCache(top, spec.entries)
        else:
            top = OracleStreamBuffers(top, spec.entries, spec.depth)
    return OracleStack(top, config.line_bits)


def drive(cache, addrs, chunk: int, miss_budget: int | None = None):
    """Feed ``addrs`` through ``cache.access`` the way a session does:
    calls of at most ``chunk`` references, each resuming where the last
    one stopped. Works on production caches and oracle stacks alike;
    returns the concatenated miss mask and the per-call consumed counts."""
    masks, cuts, pos = [], [], 0
    while pos < len(addrs):
        mask, consumed = cache.access(
            addrs[pos : pos + chunk], miss_budget=miss_budget
        )
        masks.append(mask)
        cuts.append(consumed)
        pos += consumed
    return np.concatenate(masks), cuts
