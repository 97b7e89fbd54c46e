"""Kernel interface shared by all cache backends.

A kernel classifies chunks of byte addresses against its set state and
reports raw event counts; recording those counts into
:class:`~repro.cache.base.CacheStats` (and exposing the public
``AccessResult``) is the wrapping cache model's job. The split keeps the
bit-identity contract between backends small and testable: two kernels
are equivalent iff, fed the same chunks, they produce the same
:class:`KernelResult` sequence and the same observable set state.

The RANDOM replacement policy draws eviction indices from a pre-filled
pool (drawing one random number per eviction inside the hot loop would
dominate runtime). The pool refill rule is part of the equivalence
contract — it is keyed on the *chunk length*, not on how many evictions
the chunk performs — so it lives here, shared by every backend.

A caller that passes ``victims=True`` (the mechanism decorators of
:mod:`repro.cache.components`) gets, besides the miss mask, the line
each miss evicted (``-1`` for a fill into a free way), and switches the
draw rule: the pool is never pre-sized, it is refilled with
:data:`VICTIM_POOL_REFILL` fresh draws whenever an eviction finds it
empty. Draws then depend on the eviction count alone, so a decorated
stack gives the same results however its stream is cut into calls.

A call under a ``miss_budget`` usually stops long before the end of the
chunk it is offered. :func:`budget_windows` is the one rule for running
such a call in growing windows, so its cost follows the references it
consumes: the array and reference kernels and the mechanism decorators
all use it.
"""

from __future__ import annotations

import abc
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.cache.policies import ReplacementPolicy
from repro.util.rng import make_rng

#: Fresh RANDOM draws taken when a victim-reporting call finds the
#: eviction pool empty (the refill-on-empty draw rule).
VICTIM_POOL_REFILL = 4096

#: Least number of references in the first window of a budgeted call.
FIRST_WINDOW = 256


def check_miss_budget(miss_budget: int | None) -> None:
    """Refuse a miss budget below 1.

    A caller whose counter is already due delivers that overflow instead
    of asking for zero more misses; a budget below 1 is a caller bug that
    every backend would otherwise read differently.
    """
    if miss_budget is not None and miss_budget < 1:
        from repro.errors import SimulationError

        raise SimulationError(
            f"miss_budget must be None or at least 1, got {miss_budget}"
        )


def budget_windows(n: int, miss_budget: int | None) -> Iterator[tuple[int, int]]:
    """``(lo, hi)`` bounds of the windows a chunk of ``n`` runs in.

    With no budget the whole chunk is one window. Under a budget the
    first window holds ``max(FIRST_WINDOW, 4 * miss_budget)`` references
    and each later one twice as many as the one before, so a call whose
    budget runs out early pays for about what it consumes, and a call
    that never reaches its budget takes O(log n) windows. The caller
    stops taking windows once its budget is spent.
    """
    if miss_budget is None:
        yield 0, n
        return
    lo, span = 0, max(FIRST_WINDOW, 4 * miss_budget)
    while lo < n:
        hi = min(n, lo + span)
        yield lo, hi
        lo, span = hi, 2 * span


class KernelResult(NamedTuple):
    """Raw outcome of one (possibly budget-limited) chunk classification.

    ``miss_mask`` covers only the ``consumed`` leading references;
    references past ``consumed`` were *not* applied to the kernel state.
    ``victims`` is filled only for ``victims=True`` calls: one int64
    entry per miss, in chunk order, holding the line that miss evicted
    (``-1`` when it filled a free way).
    """

    miss_mask: np.ndarray
    consumed: int
    misses: int
    writebacks: int
    prefetches: int
    victims: np.ndarray | None = None


def empty_result(victims: bool) -> KernelResult:
    """The result of a zero-length chunk."""
    return KernelResult(
        np.zeros(0, dtype=bool),
        0,
        0,
        0,
        0,
        np.zeros(0, dtype=np.int64) if victims else None,
    )


def victim_result(
    n: int,
    miss_pos: list[int],
    victims: list[int],
    writebacks: int,
    budget: int | None,
) -> KernelResult:
    """Package a :meth:`SetKernel._victim_walk` over a chunk of ``n``."""
    consumed = (
        miss_pos[-1] + 1 if budget is not None and len(miss_pos) == budget else n
    )
    miss_mask = np.zeros(consumed, dtype=bool)
    miss_mask[np.asarray(miss_pos, dtype=np.int64)] = True
    return KernelResult(
        miss_mask,
        consumed,
        len(miss_pos),
        writebacks,
        0,
        np.asarray(victims, dtype=np.int64),
    )


class SetKernel(abc.ABC):
    """Abstract set-associative kernel: per-set state + classification."""

    #: Registry name of the backend ("reference", "array", ...).
    name: str = "?"

    def __init__(
        self,
        *,
        n_sets: int,
        assoc: int,
        line_bits: int,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        seed: int | None = None,
        prefetch_next_line: bool = False,
    ) -> None:
        self.n_sets = n_sets
        self.assoc = assoc
        self.line_bits = line_bits
        self.set_mask = n_sets - 1
        self.policy = policy
        self.prefetch_next_line = prefetch_next_line
        self._rng = make_rng(seed)
        self._rand_pool: list[int] = []
        #: Seed and cumulative draw count: together they make the RNG
        #: stream *auditable*. PCG64 draws of a fixed (low, high) split
        #: across calls land on the same end state as one combined call,
        #: so ``make_rng(_seed)`` replayed for ``_rand_draws`` integers
        #: must reproduce ``_rng``'s exact state — the runtime sanitizer
        #: (repro.sanitize.rng) checks this after every session restore.
        self._seed = seed
        self._rand_draws = 0

    # -------------------------------------------------------------- random

    def _refill_rand_pool(self, n: int) -> None:
        # The pool is *replaced*, not extended, and always drawn with the
        # same size expression — both facts are load-bearing for the
        # cross-backend RANDOM-eviction equivalence.
        size = max(n, 4096)
        self._rand_pool = self._rng.integers(0, self.assoc, size=size).tolist()
        self._rand_draws += size

    def _ensure_rand_pool(self, n: int) -> None:
        """Refill the eviction pool for a chunk of ``n`` references."""
        if len(self._rand_pool) < 2 * n:
            self._refill_rand_pool(2 * n)

    def _victim_walk(
        self,
        lines: list[int],
        sets: list,
        dirty: set[int],
        write_flags: list[bool] | None = None,
        budget: int | None = None,
        materialise=None,
    ) -> tuple[list[int], list[int], int]:
        """The per-reference loop of a ``victims=True`` call.

        Applies ``lines`` in order to ``sets`` (per-set lists of
        resident lines, oldest or least recent first, as the reference
        kernel keeps them; a ``None`` entry is built on first touch by
        ``materialise(set_idx)``) and ``dirty`` (the dirty lines), under
        the refill-on-empty draw rule. Stops after the ``budget``-th
        miss. Returns the miss indices into ``lines``, their victims and
        the writeback count.
        """
        set_mask = self.set_mask
        assoc = self.assoc
        lru = self.policy is ReplacementPolicy.LRU
        random_policy = self.policy is ReplacementPolicy.RANDOM
        rand_pool = self._rand_pool
        miss_idx: list[int] = []
        victims: list[int] = []
        writebacks = 0
        for i in range(len(lines)):
            line = lines[i]
            s = sets[line & set_mask]
            if s is None:
                s = materialise(line & set_mask)
            write = write_flags is not None and write_flags[i]
            if line in s:
                if lru and s[-1] != line:
                    s.remove(line)
                    s.append(line)
                if write:
                    dirty.add(line)
                continue
            victim = -1
            if len(s) >= assoc:
                if random_policy:
                    if not rand_pool:
                        self._refill_rand_pool(VICTIM_POOL_REFILL)
                        rand_pool = self._rand_pool
                    victim = s.pop(rand_pool.pop())
                else:
                    victim = s.pop(0)  # LRU and FIFO both evict the head
                if victim in dirty:
                    dirty.discard(victim)
                    writebacks += 1
            s.append(line)
            if write:
                dirty.add(line)  # write-allocate: filled dirty
            miss_idx.append(i)
            victims.append(victim)
            if len(miss_idx) == budget:
                break
        return miss_idx, victims, writebacks

    # ----------------------------------------------------------- interface

    @abc.abstractmethod
    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        """Classify a chunk of byte addresses, updating set state.

        ``victims=True`` does two things. It reports each miss's evicted
        line in :attr:`KernelResult.victims`, and it switches RANDOM
        replacement to the refill-on-empty draw rule (see the module
        notes). The second changes *which* lines RANDOM evicts, so a
        kernel must get either only ``victims=True`` calls or none: the
        mechanism decorators pass it on every call, to every kernel of
        the stack they wrap, including levels whose victims they never
        read.
        """

    @abc.abstractmethod
    def reset(self) -> None:
        """Empty every set (cold start). The RNG/pool are *not* reset."""

    @abc.abstractmethod
    def snapshot(self) -> object:
        """Opaque copy of the full kernel state (sets, dirty, RNG)."""

    @abc.abstractmethod
    def restore(self, state: object) -> None:
        """Restore a state captured by :meth:`snapshot`."""

    @abc.abstractmethod
    def lines_in_set(self, set_idx: int) -> list[int]:
        """Resident line numbers, oldest/least-recent first."""

    @abc.abstractmethod
    def contents_line_count(self) -> int:
        """Number of valid lines currently resident."""

    @abc.abstractmethod
    def dirty_line_count(self) -> int:
        """Number of resident dirty lines (write-back bookkeeping)."""

    def contains_line(self, line: int) -> bool:
        """Whether global line number ``line`` is resident."""
        return line in self.lines_in_set(line & self.set_mask)
