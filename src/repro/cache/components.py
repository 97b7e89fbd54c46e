"""Composable cache components: pipelines and miss-reduction decorators.

The paper simulates a fixed set-associative hierarchy; this module makes
the hierarchy *compositional* so mechanism × size sweeps can ask which
objects each classic miss-reduction mechanism rescues (ROADMAP item 4,
mirroring the VC/MC/SB experimental design in SNIPPETS.md #3):

* :class:`CacheComponent` — the component protocol. On top of the
  chunked :class:`~repro.cache.base.CacheModel` interface it adds staged
  ledgers (``begin_stage`` / ``commit_stage``), the unrecorded chunked
  classification ``_chunk_access`` — which, asked for ``victims``, also
  reports the line each miss evicted — and stats-free state capture
  (``state_snapshot``/``state_restore``);
* :class:`Pipeline` — a generic N-level filtering hierarchy
  (:class:`~repro.cache.hierarchy.TwoLevelCache` is its two-level
  specialisation and stays bit-identical to the pre-refactor model);
* :class:`VictimCache` / :class:`MissCache` / :class:`StreamBuffers` —
  decorators wrapping any component, each with its own
  :class:`~repro.cache.base.CacheStats` ledger whose ``mechanism`` dict
  carries the per-mechanism event counts (``vc_hits``, ``mc_hits``,
  ``sb_hits``, ``sb_prefetches``, ...).

Mechanism semantics (Jouppi 1990, adapted to this code base's model):

* **Victim cache** — a small fully-associative buffer holding lines the
  wrapped component evicts. On an inner miss the VC is probed: a hit
  *swaps* (the VC entry is consumed, the inner component's new victim
  takes its slot) and the reference is **not** a memory miss; a VC miss
  forwards the inner victim into the VC (evicting its LRU entry) and
  counts a memory miss. VC contents are exclusive of the wrapped
  component by construction. Dirty victims are written back when the
  wrapped component evicts them (before entering the VC) — a documented
  simplification that keeps write-back accounting at the leaf.
* **Miss cache** — a small fully-associative cache *probed* on inner
  misses; hits rescue the miss, misses insert the demanded line. Unlike
  the VC it duplicates lines the wrapped component also holds, so no
  inclusion/exclusion invariant holds.
* **Stream buffers** — ``entries`` FIFO buffers of ``depth`` next-line
  prefetches. An inner miss that matches a buffer *head* is rescued; the
  buffer shifts and prefetches one more line. A miss matching no head
  allocates the least-recently-used buffer at ``line+1 .. line+depth``.
  Every rescued line was prefetched earlier (``sb_hits`` can never
  exceed ``sb_prefetches``).

Every decorator applies the inner fill before it acts, so the wrapped
component evolves the same with or without it. A decorator therefore
runs the wrapped component chunk-wise on any kernel backend, with
``victims=True``, and walks only the inner misses and their victims
through its own small buffer. The walk stops *exactly* at the
``miss_budget``-th post-mechanism miss; the wrapped component is then
rolled back to a snapshot and re-run over the consumed prefix, as
:class:`Pipeline` does for its upper levels.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import sanitize
from repro.cache.base import AccessResult, CacheModel, CacheStats
from repro.cache.config import CacheConfig, MechanismSpec, parse_mechanisms
from repro.cache.kernels.base import (
    KernelResult,
    budget_windows,
    check_miss_budget,
    empty_result,
)
from repro.errors import CacheConfigError


class CacheComponent(CacheModel):
    """A cache model that can participate in pipelines and decorators.

    Besides the chunked :meth:`~repro.cache.base.CacheModel.access`, a
    component exposes:

    * **staged** ledgers — :meth:`begin_stage` resets per-chunk event
      counters, :meth:`commit_stage` records the staged counts into
      :attr:`stats` under a tag (cascading to wrapped components),
      keeping every counter movement inside ``CacheStats.record``
      (the sanitizer's ledger identities check it);
    * ``_chunk_access`` — the chunked classification *without* stats
      recording, so compositions control when and with what access
      totals each ledger is committed: calls add to the staged counts
      until the next :meth:`begin_stage`. ``victims=True`` also returns
      the line each miss evicted from the component as a whole (see
      :class:`~repro.cache.kernels.base.KernelResult`) and puts every
      kernel inside on the refill-on-empty RANDOM draw rule, which
      changes RANDOM evictions (see
      :meth:`~repro.cache.kernels.base.SetKernel.access`): a component
      gets either only ``victims=True`` calls or none;
    * :meth:`state_snapshot`/:meth:`state_restore` — stats-free state
      capture used for exact ``miss_budget`` rollback.
    """

    @abc.abstractmethod
    def begin_stage(self) -> None:
        """Zero the staged per-chunk counters (cascades to inner)."""

    @abc.abstractmethod
    def commit_stage(self, tag: str, accesses: int) -> None:
        """Record staged counts into :attr:`stats` (cascades to inner)."""

    @abc.abstractmethod
    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        """Classify a chunk, staging (not recording) event counts.

        ``victims=True`` reports per-miss victims *and* selects the
        refill-on-empty RANDOM draw rule (see the class notes)."""

    # ------------------------------------------------------------- state

    @abc.abstractmethod
    def state_snapshot(self) -> object:
        """Opaque copy of cache state (not statistics)."""

    @abc.abstractmethod
    def state_restore(self, state: object) -> None:
        """Restore a state captured by :meth:`state_snapshot`."""

    # ----------------------------------------------------------- ledgers

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        """(label, stats) for every component in this stack, outer first."""
        return [("cache", self.stats)]


class MechanismDecorator(CacheComponent):
    """Base class for miss-reduction decorators wrapping a component.

    The decorator runs the wrapped component chunk-wise and walks its
    misses, rescuing (or confirming) each one. Its ``access`` therefore
    reports the *post-mechanism* miss stream — what a memory-side
    hardware counter would see — and honours ``miss_budget`` against
    exactly that stream.
    """

    #: Mechanism kind tag ("vc", "mc", "sb") — prefixes ledger keys.
    kind: str = "?"

    def __init__(self, inner: CacheComponent, entries: int) -> None:
        if entries < 1:
            raise CacheConfigError(
                f"{type(self).__name__} needs entries >= 1, got {entries}"
            )
        super().__init__(inner.config)
        self.inner = inner
        self.entries = entries
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0

    # ------------------------------------------------------------ staging

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0
        self.inner.begin_stage()

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(
            tag,
            accesses,
            self._staged_misses,
            prefetches=self._staged_prefetches,
            mechanism=self._staged_mechanism(),
        )
        self._staged_misses = 0
        self._staged_hits = 0
        self._staged_probes = 0
        self._staged_prefetches = 0
        self.inner.commit_stage(tag, accesses)
        # After the cascade both ledgers hold this chunk, so the chain
        # identities (probes == inner misses, ...) must hold on totals.
        if sanitize.is_active():
            sanitize.check_component(self, self.kind)

    def _staged_mechanism(self) -> dict[str, int]:
        counts = {
            f"{self.kind}_hits": self._staged_hits,
            f"{self.kind}_probes": self._staged_probes,
        }
        if self.kind == "sb":
            counts["sb_prefetches"] = self._staged_prefetches
        return counts

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        check_miss_budget(miss_budget)
        n = len(addrs)
        if n == 0:
            return empty_result(victims)
        addrs = np.asarray(addrs, dtype=np.uint64)
        inner = self.inner
        snap = inner.state_snapshot() if miss_budget is not None else None
        # Under a budget the wrapped component runs in the shared budget
        # windows, so it overshoots the budget-th miss by about one window
        # (the wrapped stack gives the same results however its stream is
        # cut into calls). Sampling budgets are tens of misses against
        # calls of up to 32 Ki references: running the whole call once
        # and rolling back, as Pipeline does, made `repro table1 --quick
        # --mechanism vc --backend array` 1.57x slower (median of 10
        # alternating runs, 20.7 s vs 13.2 s, 2-vCPU x86-64 VM).
        left = miss_budget
        out_at: list[np.ndarray] = []
        leaving: list[int] = []
        hi = 0
        consumed = n
        for lo, hi in budget_windows(n, miss_budget):
            res = inner._chunk_access(
                addrs[lo:hi],
                writes=None if writes is None else writes[lo:hi],
                victims=True,
            )
            at = np.flatnonzero(res.miss_mask) + lo
            lines = (addrs[at] >> np.uint64(self.config.line_bits)).tolist()
            out, gone, walked = self._walk(lines, res.victims.tolist(), left)
            self._staged_probes += walked
            self._staged_hits += walked - len(out)
            self._staged_misses += len(out)
            out_at.append(at[out])
            leaving += gone
            if left is not None:
                left -= len(out)
                if left == 0:
                    consumed = int(at[walked - 1]) + 1
                    break
        if consumed < hi:
            # The walk stopped at the budget-th post-mechanism miss; the
            # wrapped component must not keep the references past it,
            # nor their staged counts.
            inner.state_restore(snap)
            inner.begin_stage()
            inner._chunk_access(
                addrs[:consumed],
                writes=None if writes is None else writes[:consumed],
                victims=True,
            )
        miss_mask = np.zeros(consumed, dtype=bool)
        miss_mask[np.concatenate(out_at)] = True
        return KernelResult(
            miss_mask,
            consumed,
            len(leaving),
            0,
            0,
            np.asarray(leaving, dtype=np.int64) if victims else None,
        )

    @abc.abstractmethod
    def _walk(
        self, lines: list[int], victims: list[int], budget: int | None
    ) -> tuple[list[int], list[int], int]:
        """Walk the inner misses through the decorator's own storage.

        ``lines[k]`` is the k-th inner miss and ``victims[k]`` the line
        the wrapped component evicted for it (-1 for none). Stops after
        the ``budget``-th post-mechanism miss. Returns the indices ``k``
        that stay misses, the line each of them pushes out of the whole
        decorated stack (-1 for none), and the number of inner misses
        walked. Stream buffers stage their prefetches here.
        """

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        self.begin_stage()
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return (self._own_state(), self.inner.state_snapshot())

    def state_restore(self, state: object) -> None:
        own, inner = state  # type: ignore[misc]
        self._restore_own_state(own)
        self.inner.state_restore(inner)

    @abc.abstractmethod
    def _own_state(self) -> object:
        """Copy of the decorator's own buffer state."""

    @abc.abstractmethod
    def _restore_own_state(self, state: object) -> None:
        """Restore a copy from :meth:`_own_state`."""

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        self._reset_own()
        self.inner.reset()

    @abc.abstractmethod
    def _reset_own(self) -> None:
        """Empty the decorator's own storage."""

    @abc.abstractmethod
    def resident_lines(self) -> set[int]:
        """Lines currently held in the decorator's own storage."""

    def contents_line_count(self) -> int:
        """Valid lines across the whole decorated stack (diagnostics)."""
        return self.inner.contents_line_count() + len(self.resident_lines())

    def contains_addr(self, addr: int) -> bool:
        line = addr >> self.config.line_bits
        inner = getattr(self.inner, "contains_addr", None)
        held = bool(inner(addr)) if inner is not None else False
        return held or line in self.resident_lines()

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        return [(self.kind, self.stats), *self.inner.component_ledgers()]

    def describe(self) -> str:
        inner = getattr(self.inner, "describe", None)
        base = inner() if inner is not None else self.config.describe()
        return f"{self.kind}({self.entries}) over {base}"


class VictimCache(MechanismDecorator):
    """Fully-associative spill buffer with swap-on-hit (Jouppi's VC)."""

    kind = "vc"

    def __init__(self, inner: CacheComponent, entries: int = 8) -> None:
        super().__init__(inner, entries)
        #: Insertion-ordered line -> None map; oldest entry first (LRU).
        self._lines: dict[int, None] = {}

    def _walk(
        self, lines: list[int], victims: list[int], budget: int | None
    ) -> tuple[list[int], list[int], int]:
        held = self._lines
        entries = self.entries
        out: list[int] = []
        leaving: list[int] = []
        for k, (line, victim) in enumerate(zip(lines, victims)):
            if line in held:
                # Swap: the VC entry is consumed and the inner victim
                # takes its slot, so the VC never overflows here and
                # nothing leaves the decorated stack.
                del held[line]
                if victim >= 0:
                    held[victim] = None
                continue
            gone = -1
            if victim >= 0:
                held[victim] = None
                if len(held) > entries:
                    gone = next(iter(held))
                    del held[gone]
            out.append(k)
            leaving.append(gone)
            if len(out) == budget:
                return out, leaving, k + 1
        return out, leaving, len(lines)

    def _own_state(self) -> object:
        return dict(self._lines)

    def _restore_own_state(self, state: object) -> None:
        self._lines = dict(state)  # type: ignore[call-overload]

    def _reset_own(self) -> None:
        self._lines = {}

    def resident_lines(self) -> set[int]:
        return set(self._lines)


class MissCache(MechanismDecorator):
    """Small fully-associative fill cache probed on inner misses."""

    kind = "mc"

    def __init__(self, inner: CacheComponent, entries: int = 8) -> None:
        super().__init__(inner, entries)
        #: Insertion-ordered line -> None map; oldest entry first (LRU).
        self._lines: dict[int, None] = {}

    def _walk(
        self, lines: list[int], victims: list[int], budget: int | None
    ) -> tuple[list[int], list[int], int]:
        held = self._lines
        entries = self.entries
        out: list[int] = []
        leaving: list[int] = []
        for k, (line, victim) in enumerate(zip(lines, victims)):
            if line in held:
                # LRU promote; the line stays duplicated in the MC while
                # the inner fill (already applied) also holds it.
                del held[line]
                held[line] = None
                continue
            held[line] = None
            if len(held) > entries:
                dropped = next(iter(held))
                del held[dropped]
                if victim < 0:
                    victim = dropped
            out.append(k)
            leaving.append(victim)
            if len(out) == budget:
                return out, leaving, k + 1
        return out, leaving, len(lines)

    def _own_state(self) -> object:
        return dict(self._lines)

    def _restore_own_state(self, state: object) -> None:
        self._lines = dict(state)  # type: ignore[call-overload]

    def _reset_own(self) -> None:
        self._lines = {}

    def resident_lines(self) -> set[int]:
        return set(self._lines)


class StreamBuffers(MechanismDecorator):
    """N next-line prefetch buffers with allocate-on-miss."""

    kind = "sb"

    def __init__(
        self, inner: CacheComponent, entries: int = 4, depth: int = 4
    ) -> None:
        super().__init__(inner, entries)
        if depth < 1:
            raise CacheConfigError(f"StreamBuffers needs depth >= 1, got {depth}")
        self.depth = depth
        #: Head line each buffer would serve next; None = unallocated.
        self._heads: list[int | None] = [None] * entries
        #: Buffer indices, least recently used first.
        self._lru: list[int] = list(range(entries))

    def _walk(
        self, lines: list[int], victims: list[int], budget: int | None
    ) -> tuple[list[int], list[int], int]:
        heads = self._heads
        lru = self._lru
        out: list[int] = []
        leaving: list[int] = []
        walked = len(lines)
        for k, line in enumerate(lines):
            if line in heads:
                # Head hit (the lowest-numbered matching buffer): it
                # shifts and prefetches one more line to keep its depth,
                # rescuing the miss.
                buf = heads.index(line)
                heads[buf] = line + 1
                lru.remove(buf)
                lru.append(buf)
                continue
            buf = lru.pop(0)
            lru.append(buf)
            heads[buf] = line + 1
            out.append(k)
            leaving.append(victims[k])
            if len(out) == budget:
                walked = k + 1
                break
        # One prefetch per rescued miss, ``depth`` per new allocation.
        self._staged_prefetches += walked - len(out) + self.depth * len(out)
        return out, leaving, walked

    def _own_state(self) -> object:
        return (list(self._heads), list(self._lru))

    def _restore_own_state(self, state: object) -> None:
        heads, lru = state  # type: ignore[misc]
        self._heads = list(heads)
        self._lru = list(lru)

    def _reset_own(self) -> None:
        self._heads = [None] * self.entries
        self._lru = list(range(self.entries))

    def resident_lines(self) -> set[int]:
        """Buffered (prefetched) lines: each head's depth-long window."""
        buffered: set[int] = set()
        for head in self._heads:
            if head is not None:
                buffered.update(range(head, head + self.depth))
        return buffered

    def contents_line_count(self) -> int:
        allocated = sum(1 for head in self._heads if head is not None)
        return self.inner.contents_line_count() + allocated * self.depth

    def describe(self) -> str:
        inner = getattr(self.inner, "describe", None)
        base = inner() if inner is not None else self.config.describe()
        return f"sb({self.entries}x{self.depth}) over {base}"


class Pipeline(CacheComponent):
    """Generic N-level filtering hierarchy over cache components.

    Level *i*'s miss stream feeds level *i+1*; ``access`` returns the
    **last level's** miss mask (what a memory-side counter sees) and
    honours ``miss_budget`` against it exactly: upper-level state is
    snapshotted before a budgeted chunk and, when the budget-th miss
    falls mid-chunk, rolled back and re-applied over the consumed prefix
    only. Every level records each consumed reference under the same
    tag, so per tag the levels' access totals agree. ``self.stats`` *is*
    the last level's ledger (one object, not a copy). Write masks are
    ignored (no dirty-line tracking across levels), matching the
    pre-refactor two-level model.
    """

    def __init__(self, levels: "list[CacheComponent]") -> None:
        if not levels:
            raise CacheConfigError("Pipeline needs at least one level")
        for upper, lower in zip(levels, levels[1:]):
            if upper.config.size >= lower.config.size:
                raise CacheConfigError(
                    f"L1 ({upper.config.size}) must be smaller than "
                    f"L2 ({lower.config.size})"
                )
            if upper.config.line_size != lower.config.line_size:
                raise CacheConfigError("L1 and L2 must share a line size")
        super().__init__(levels[-1].config)
        self.levels = list(levels)
        # The pipeline's ledger *is* the monitored (last) level's: one
        # shared object, so model-level consumers and per-component
        # ledgers can never disagree.
        self.stats = self.levels[-1].stats

    # ------------------------------------------------------------ staging

    def begin_stage(self) -> None:
        for level in self.levels:
            level.begin_stage()

    def commit_stage(self, tag: str, accesses: int) -> None:
        for level in self.levels:
            level.commit_stage(tag, accesses)
        if sanitize.is_active():
            sanitize.check_component(self, "pipeline")

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        # ``victims`` goes to every level, not just the last (whose
        # victims are the pipeline's): it also selects the
        # refill-on-empty RANDOM draw rule, which every kernel in a
        # decorated stack must follow to stay chunk-invariant. Upper
        # levels therefore report victims that nothing reads.
        check_miss_budget(miss_budget)
        n = len(addrs)
        addrs = np.asarray(addrs, dtype=np.uint64)
        uppers = self.levels[:-1]
        last = self.levels[-1]
        snaps = (
            [u.state_snapshot() for u in uppers]
            if miss_budget is not None
            else None
        )
        cur, index = self._filter(addrs, victims)
        r_last = last._chunk_access(cur, miss_budget=miss_budget, victims=victims)

        consumed = n
        if miss_budget is not None and r_last.misses >= miss_budget:
            # Budget exhausted: the chunk ends at the reference whose
            # upper-level miss produced the budget-th last-level miss.
            # Trailing references — even upper-level hits — are not
            # consumed, exactly as a per-reference walk would stop.
            if index is not None:
                consumed = int(index[r_last.consumed - 1]) + 1
                index = index[: r_last.consumed]
            else:
                consumed = r_last.consumed
            if consumed < n and snaps is not None:
                for upper, snap in zip(uppers, snaps):
                    upper.state_restore(snap)
                    # Discard the staged counts of the full-chunk pass
                    # too: the ledger must see only the consumed prefix
                    # about to be re-applied, or upper levels would
                    # commit misses for references never consumed
                    # (caught by the runtime sanitizer's ledger check).
                    upper.begin_stage()
                self._filter(addrs[:consumed], victims)

        if index is None:
            return r_last
        miss_mask = np.zeros(consumed, dtype=bool)
        miss_mask[index[r_last.miss_mask]] = True
        return KernelResult(miss_mask, consumed, r_last.misses, 0, 0, r_last.victims)

    def _filter(
        self, addrs: np.ndarray, victims: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Run ``addrs`` through the upper levels, staging their counts.

        Returns the references that reach the last level and their
        positions in ``addrs`` (None when there is no upper level).
        """
        index: np.ndarray | None = None
        for upper in self.levels[:-1]:
            r = upper._chunk_access(addrs, victims=victims)
            hit_through = np.flatnonzero(r.miss_mask)
            index = hit_through if index is None else index[hit_through]
            addrs = addrs[hit_through]
        return addrs, index

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        self.begin_stage()
        res = self._chunk_access(addrs, miss_budget=miss_budget)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return [level.state_snapshot() for level in self.levels]

    def state_restore(self, state: object) -> None:
        for level, snap in zip(self.levels, state):  # type: ignore[call-overload]
            level.state_restore(snap)

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        for level in self.levels:
            level.reset()

    def contents_line_count(self) -> int:
        """Valid lines in the monitored (last) level."""
        return self.levels[-1].contents_line_count()

    def contains_addr(self, addr: int) -> bool:
        last = self.levels[-1]
        contains = getattr(last, "contains_addr", None)
        return bool(contains(addr)) if contains is not None else False

    def combined_stats(self) -> CacheStats:
        """All levels' totals merged into one fresh :class:`CacheStats`."""
        merged = self.levels[0].stats.snapshot()
        for level in self.levels[1:]:
            merged.merge(level.stats)
        return merged

    def component_ledgers(self) -> list[tuple[str, CacheStats]]:
        ledgers: list[tuple[str, CacheStats]] = []
        for i, level in enumerate(self.levels):
            prefix = f"l{i + 1}"
            for name, stats in level.component_ledgers():
                label = prefix if name == "cache" else f"{prefix}.{name}"
                ledgers.append((label, stats))
        return ledgers

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return " + ".join(
            f"L{i + 1} {level.config.describe()}"
            for i, level in enumerate(self.levels)
        )


class SharedCacheLevel:
    """A last-level cache referenced by several cores' pipelines.

    Wraps one leaf component (the physical shared LLC — its ledger is
    the *aggregate* view every core's traffic lands in) and hands out
    one :class:`SharedLevelPort` per core. Each core's hierarchy is then
    ``Pipeline([private L1, port])`` (or ``Pipeline([port])``): the port
    presents the shared leaf through a per-core :class:`CacheStats`
    ledger, so the pipeline chain identities keep holding per core while
    the sanitizer additionally proves the aggregate ledger equals the
    sum of the port ledgers at every commit boundary.

    Each port records its own share of the leaf's traffic into the
    aggregate ledger when it commits, so the aggregate equals the sum of
    the port ledgers at every commit, whether one leaf call served one
    core's chunk (stepping) or several cores' post-L1 pieces (the fused
    path, DESIGN.md section 9).
    """

    def __init__(self, leaf: CacheComponent) -> None:
        self.leaf = leaf
        self.ports: list[SharedLevelPort] = []

    @property
    def config(self) -> CacheConfig:
        return self.leaf.config

    @property
    def stats(self) -> CacheStats:
        """The aggregate ledger (the leaf's own)."""
        return self.leaf.stats

    def port(self, core_id: int, shadow: CacheComponent) -> "SharedLevelPort":
        """Create the per-core port; ``shadow`` is the core's solo model.

        The shadow must share the leaf's geometry and replacement seed:
        with one core the shadow then evolves bit-identically to the
        leaf and every miss classifies as *self* — the degenerate case
        the 1-core bit-identity contract relies on.
        """
        if shadow.config != self.leaf.config:
            raise CacheConfigError(
                "shared-level shadow model must match the leaf geometry "
                f"({shadow.config.describe()} != {self.leaf.config.describe()})"
            )
        p = SharedLevelPort(self, core_id, shadow)
        self.ports.append(p)
        return p


class SharedLevelPort(CacheComponent):
    """One core's view of a :class:`SharedCacheLevel`.

    Behaves exactly like the wrapped leaf for classification (every
    access is applied to the shared leaf, budget semantics included) but
    keeps its own ledger, so per-core accounting and the aggregate
    ledger are separate objects related by a conservation identity. On
    top of pass-through, each consumed chunk is replayed against the
    core's solo ``shadow`` model to classify shared-level misses as
    *self* vs *contention* (see :mod:`repro.cache.contention`).

    The attribute is named ``shared_level`` (not ``inner``/``levels``)
    deliberately: the runtime sanitizer duck-types components by those
    attribute names, and the port has its own chain identities.
    """

    def __init__(
        self, shared_level: SharedCacheLevel, core_id: int, shadow: CacheComponent
    ) -> None:
        super().__init__(shared_level.leaf.config)
        self.shared_level = shared_level
        self.core_id = core_id
        self.shadow = shadow
        from repro.cache.contention import ContentionLedger

        self.contention = ContentionLedger()
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        #: (self_addrs, contention_addrs) per classified chunk, drained
        #: by the multi-core session after each step for per-object
        #: attribution against the core's live object map.
        self._pending_classified: list[tuple[np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------ staging

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        self.shared_level.leaf.begin_stage()
        self.shadow.begin_stage()

    def commit_stage(self, tag: str, accesses: int) -> None:
        # The port records its share into the aggregate ledger as well:
        # one leaf call can serve several ports (the fused multi-core
        # path), so the leaf's own staged counts are not one port's.
        for stats in (self.stats, self.shared_level.stats):
            stats.record(
                tag,
                accesses,
                self._staged_misses,
                writebacks=self._staged_writebacks,
                prefetches=self._staged_prefetches,
            )
        self.contention.record(
            tag, self._staged_self, self._staged_contention, self._staged_rescued
        )
        # The shadow saw only the consumed post-filter prefix, so its
        # ledger is committed with that count — internally consistent,
        # but not part of the port/aggregate conservation identity.
        self.shadow.commit_stage(tag, self._staged_shadow_consumed)
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0
        self._staged_shadow_consumed = 0
        self._staged_self = 0
        self._staged_contention = 0
        self._staged_rescued = 0
        if sanitize.is_active():
            sanitize.check_component(self, "shared_port")

    # ----------------------------------------------------------- chunked

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        if victims:
            raise CacheConfigError(
                "mechanism decorators cannot wrap a shared level: its "
                "victims are evicted by every core's traffic, so a "
                "decorator would capture other cores' lines; run "
                "mechanism sweeps single-core"
            )
        res = self.shared_level.leaf._chunk_access(
            addrs, miss_budget=miss_budget, writes=writes
        )
        self._classify(np.asarray(addrs[: res.consumed], dtype=np.uint64), res)
        return res

    def _classify(self, refs: np.ndarray, res: KernelResult) -> None:
        """Stage the shared leaf's result ``res`` over ``refs`` (this
        core's references it consumed) and split its misses into self
        and contention against the solo shadow."""
        self._staged_misses += res.misses
        self._staged_writebacks += res.writebacks
        self._staged_prefetches += res.prefetches
        shadow_res = self.shadow._chunk_access(refs)
        self._staged_shadow_consumed += len(refs)
        shared_miss = res.miss_mask
        shadow_miss = shadow_res.miss_mask
        self_mask = shared_miss & shadow_miss
        contention_mask = shared_miss & ~shadow_miss
        self._staged_self += int(self_mask.sum())
        self._staged_contention += int(contention_mask.sum())
        self._staged_rescued += int((~shared_miss & shadow_miss).sum())
        if self_mask.any() or contention_mask.any():
            self._pending_classified.append(
                (refs[self_mask], refs[contention_mask])
            )

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        self.begin_stage()
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    def drain_classified(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Classified (self, contention) address arrays since last drain."""
        pending = self._pending_classified
        self._pending_classified = []
        return pending

    # ------------------------------------------------------------- state

    def state_snapshot(self) -> object:
        return (
            self.shared_level.leaf.state_snapshot(),
            self.shadow.state_snapshot(),
        )

    def state_restore(self, state: object) -> None:
        leaf_state, shadow_state = state  # type: ignore[misc]
        self.shared_level.leaf.state_restore(leaf_state)
        self.shadow.state_restore(shadow_state)

    # -------------------------------------------------------- diagnostics

    def reset(self) -> None:
        self.shared_level.leaf.reset()
        self.shadow.reset()

    def contents_line_count(self) -> int:
        return self.shared_level.leaf.contents_line_count()

    def contains_addr(self, addr: int) -> bool:
        contains = getattr(self.shared_level.leaf, "contains_addr", None)
        return bool(contains(addr)) if contains is not None else False

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"port[c{self.core_id}] of shared {self.config.describe()}"


def wrap_mechanisms(
    component: CacheComponent,
    mechanisms: "tuple[MechanismSpec, ...] | str | None",
) -> CacheComponent:
    """Wrap ``component`` with each mechanism in order (outermost last).

    The listed order is wrap order: ``("vc", "sb")`` builds
    ``StreamBuffers(VictimCache(component))`` so the stream buffers probe
    first on the miss path, matching the VC+SB / MC+SB combinations of
    the referenced sweep design.
    """
    for spec in parse_mechanisms(mechanisms):
        if spec.kind == "vc":
            component = VictimCache(component, entries=spec.entries)
        elif spec.kind == "mc":
            component = MissCache(component, entries=spec.entries)
        else:
            component = StreamBuffers(
                component, entries=spec.entries, depth=spec.depth
            )
    return component


def decorated_config(config: CacheConfig) -> bool:
    """Whether ``config`` requests a mechanism decorator stack."""
    return bool(config.mechanisms)
