"""The reference kernel: Python list-of-lists set state.

This is the original model the experiments were validated against — set
state is a list of line numbers per set, ordered oldest-first, so LRU
promotion and eviction are O(assoc) list operations; associativities in
practice are 2-16, where a linear scan of a small list beats any fancier
structure. Its access loop *defines* the semantics every other backend
must reproduce bit-for-bit. A ``victims=True`` call runs the shared
victim-reporting walk (:meth:`SetKernel._victim_walk`) over the same
lists instead, leaving the main loop free of per-miss reporting work.

A call under a ``miss_budget`` converts its addresses to Python lists in
the windows of :func:`~repro.cache.kernels.base.budget_windows`, ahead
of the loop, so a sampling call offered thousands of references but cut
after a few hundred converts about what it consumes. Only the conversion
is windowed: the loop body is the same for every window, and RANDOM's
eviction pool is still sized once from the offered chunk.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cache.kernels.base import (
    KernelResult,
    SetKernel,
    budget_windows,
    check_miss_budget,
    empty_result,
    victim_result,
)
from repro.cache.policies import ReplacementPolicy


class ReferenceKernel(SetKernel):
    """Exact A-way set-associative kernel over per-set Python lists."""

    name = "reference"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        #: Line numbers currently dirty (written since fill).
        self._dirty: set[int] = set()

    def reset(self) -> None:
        self._sets = [[] for _ in range(self.n_sets)]
        self._dirty = set()

    def contents_line_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def dirty_line_count(self) -> int:
        return len(self._dirty)

    def lines_in_set(self, set_idx: int) -> list[int]:
        return list(self._sets[set_idx])

    def contains_line(self, line: int) -> bool:
        return line in self._sets[line & self.set_mask]

    def snapshot(self) -> object:
        return (
            [list(s) for s in self._sets],
            set(self._dirty),
            list(self._rand_pool),
            copy.deepcopy(self._rng.bit_generator.state),
            self._rand_draws,
        )

    def restore(self, state: object) -> None:
        sets, dirty, pool, rng_state, rand_draws = state
        self._sets = [list(s) for s in sets]
        self._dirty = set(dirty)
        self._rand_pool = list(pool)
        self._rng.bit_generator.state = copy.deepcopy(rng_state)
        self._rand_draws = rand_draws

    def access(
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
        line_bits = self.line_bits
        if victims:
            miss_pos, evicted, writebacks = self._victim_walk(
                (addrs >> line_bits).tolist(),
                self._sets,
                self._dirty,
                writes.tolist() if writes is not None else None,
                miss_budget,
            )
            return victim_result(n, miss_pos, evicted, writebacks, miss_budget)
        set_mask = self.set_mask
        assoc = self.assoc
        sets = self._sets
        dirty = self._dirty
        policy = self.policy
        lru = policy is ReplacementPolicy.LRU
        random_policy = policy is ReplacementPolicy.RANDOM
        prefetch = self.prefetch_next_line
        if random_policy:
            self._ensure_rand_pool(n)
        rand_pool = self._rand_pool

        lines: list[int] = []
        write_flags: list[bool] | None = None
        miss_flags = bytearray(n)
        budget = miss_budget if miss_budget is not None else n + 1
        misses = 0
        writebacks = 0
        prefetches = 0
        consumed = n
        for lo, hi in budget_windows(n, miss_budget):
            # The lists grow a window at a time, so a call its budget
            # cuts early converts about the references it consumes (the
            # first window's lists are used as they come: no copy).
            window = (addrs[lo:hi] >> line_bits).tolist()
            flags = writes[lo:hi].tolist() if writes is not None else None
            if not lo:
                lines, write_flags = window, flags
            else:
                lines += window
                if write_flags is not None and flags is not None:
                    write_flags += flags
            for i in range(lo, hi):
                line = lines[i]
                s = sets[line & set_mask]
                if line in s:
                    if lru and s[-1] != line:
                        s.remove(line)
                        s.append(line)
                    if write_flags is not None and write_flags[i]:
                        dirty.add(line)
                else:
                    miss_flags[i] = 1
                    misses += 1
                    if len(s) >= assoc:
                        if random_policy:
                            victim = s.pop(rand_pool.pop())
                        else:
                            victim = s.pop(0)  # LRU and FIFO both evict the head
                        if victim in dirty:
                            dirty.discard(victim)
                            writebacks += 1
                    s.append(line)
                    if write_flags is not None and write_flags[i]:
                        dirty.add(line)  # write-allocate: filled dirty
                    if prefetch:
                        nxt = line + 1
                        ps = sets[nxt & set_mask]
                        if nxt not in ps:
                            prefetches += 1
                            if len(ps) >= assoc:
                                victim = ps.pop(
                                    rand_pool.pop() if random_policy else 0
                                )
                                if victim in dirty:
                                    dirty.discard(victim)
                                    writebacks += 1
                            ps.append(nxt)
                    budget -= 1
                    if budget == 0:
                        consumed = i + 1
                        break
            if budget == 0:
                break

        miss_mask = np.frombuffer(bytes(miss_flags[:consumed]), dtype=np.uint8).astype(
            bool
        )
        return KernelResult(miss_mask, consumed, misses, writebacks, prefetches)
