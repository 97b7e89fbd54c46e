"""The reference kernel: Python list-of-lists set state.

This is the original model the experiments were validated against — set
state is a list of line numbers per set, ordered oldest-first, so LRU
promotion and eviction are O(assoc) list operations; associativities in
practice are 2-16, where a linear scan of a small list beats any fancier
structure. These lists are what the per-reference loops of
:class:`~repro.cache.kernels.base.SetKernel` step through, so this kernel
runs them on its own state: :meth:`SetKernel._walk` for a plain call,
and the victim-reporting :meth:`SetKernel._victim_walk` for a
``victims=True`` call (the array kernel runs both on lists it builds).
What this kernel adds is the choice of references the walk steps
through: its budget windows and its leaders.

A call runs in the windows of
:func:`~repro.cache.kernels.base.budget_windows` (one window without a
budget), converting each window's addresses to Python lists as it
reaches it, so a sampling call offered thousands of references but cut
after a few hundred converts about what it consumes.

**Leader walk.** The walk steps only through the references that can
change state. A reference that does not write and repeats the line of
the reference before it in the same call (a *follower*) is a certain
hit that changes nothing: the reference before it left the line
resident and, under LRU, most recent; FIFO and RANDOM do nothing on a
hit, and a hit never reaches a miss budget or draws from the eviction
pool. One NumPy comparison per window finds the followers and the walk
skips them; writers are always walked, so dirty bits and budget cuts
stay exact. Windows shorter than
:data:`~repro.cache.kernels.base.FIRST_WINDOW` and prefetching kernels
walk every reference: a prefetch fill can land in the set it just
filled and demote or evict the line (a one-set cache).

This kernel is no longer the verbatim per-reference definition: that
plain loop, including the chunk-keyed RANDOM pool rule, is the test
oracle in ``tests/reference_oracle.py``, and the differential replay
harness and property tests hold this kernel to it call by call.
RANDOM's eviction pool is sized once from the offered chunk, as there.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable

import numpy as np

from repro.cache.kernels.base import (
    FIRST_WINDOW,
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
        if self.policy is ReplacementPolicy.RANDOM:
            self._ensure_rand_pool(n)
        lines: list[int] = []
        write_flags: list[bool] | None = None
        miss_flags = bytearray(n)
        budget = miss_budget if miss_budget is not None else n + 1
        misses = 0
        writebacks = 0
        prefetches = 0
        cut: int | None = None
        for lo, hi in budget_windows(n, miss_budget):
            # The lists grow a window at a time, so a call its budget
            # cuts early converts about the references it consumes (the
            # first window's lists are used as they come: no copy).
            window_lines = addrs[lo:hi] >> line_bits
            window = window_lines.tolist()
            flags = writes[lo:hi].tolist() if writes is not None else None
            walk: Iterable[int]
            if self.prefetch_next_line or hi - lo < FIRST_WINDOW:
                walk = range(lo, hi)
            else:
                walk = _leaders(
                    window_lines,
                    lo,
                    lines[lo - 1] if lo else None,
                    writes[lo:hi] if writes is not None else None,
                )
            if not lo:
                lines, write_flags = window, flags
            else:
                lines += window
                if write_flags is not None and flags is not None:
                    write_flags += flags
            m, wb, pf, cut = self._walk(
                lines, walk, self._sets, self._dirty, write_flags, miss_flags, budget
            )
            misses += m
            writebacks += wb
            prefetches += pf
            budget -= m
            if cut is not None:
                break

        consumed = n if cut is None else cut
        miss_mask = np.frombuffer(bytes(miss_flags[:consumed]), dtype=np.uint8).astype(
            bool
        )
        return KernelResult(miss_mask, consumed, misses, writebacks, prefetches)


def _leaders(
    window_lines: np.ndarray,
    lo: int,
    prev_line: int | None,
    window_writes: np.ndarray | None,
) -> list[int]:
    """Call positions of the references in a window that the loop must
    step through: every writer, and every reference whose line differs
    from the one before it in the call (``prev_line`` is the line of the
    reference just before the window, ``None`` at the call's start)."""
    step = np.empty(len(window_lines), dtype=bool)
    step[0] = prev_line is None or int(window_lines[0]) != prev_line
    np.not_equal(window_lines[1:], window_lines[:-1], out=step[1:])
    if window_writes is not None:
        np.logical_or(step, window_writes, out=step)
    return (np.flatnonzero(step) + lo).tolist()
