"""The plain per-reference loop: the test oracle for the reference kernel.

Production's :class:`~repro.cache.kernels.reference.ReferenceKernel`
walks only the references that can change state (see its module notes).
:class:`PlainReferenceKernel` is the loop it replaced, kept verbatim:
one Python step per reference, budget windows for the list conversion
only, and the chunk-keyed RANDOM pool rule (the pool is sized once from
the offered chunk). It shares the production kernel's set, dirty and
RNG layout, so the two can be compared field for field.

:class:`CheckedReferenceKernel` is the production kernel with a plain
twin: every call, restore and reset is applied to both, and each call
asserts the same result and the same state. The differential
replay harness and the backend property test build their ``reference``
caches on it (:func:`checked_reference_cache`), so every call they make
holds the walk to the plain loop.
"""

from __future__ import annotations

import numpy as np

from repro.cache.config import CacheConfig
from repro.cache.kernels.base import (
    KernelResult,
    budget_windows,
    check_miss_budget,
    empty_result,
    victim_result,
)
from repro.cache.kernels.reference import ReferenceKernel
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache


class PlainReferenceKernel(ReferenceKernel):
    """The reference kernel with one loop step per reference."""

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


def kernel_state(kernel: ReferenceKernel) -> tuple:
    """Everything a list-state kernel carries between calls."""
    return (
        kernel._sets,
        kernel._dirty,
        kernel._rand_pool,
        kernel._rand_draws,
        kernel._rng.bit_generator.state,
    )


def assert_same_result(got: KernelResult, want: KernelResult, where="") -> None:
    assert got.consumed == want.consumed, where
    assert np.array_equal(got.miss_mask, want.miss_mask), where
    assert (got.misses, got.writebacks, got.prefetches) == (
        want.misses,
        want.writebacks,
        want.prefetches,
    ), where
    if want.victims is None:
        assert got.victims is None, where
    else:
        assert np.array_equal(got.victims, want.victims), where


class CheckedReferenceKernel(ReferenceKernel):
    """The production reference kernel, held to a plain twin per call."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.oracle = PlainReferenceKernel(**kwargs)
        self.calls = 0

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        got = super().access(addrs, miss_budget, writes, victims)
        want = self.oracle.access(addrs, miss_budget, writes, victims)
        where = f"call {self.calls} (budget {miss_budget}, {len(addrs)} refs)"
        self.calls += 1
        assert_same_result(got, want, where)
        assert kernel_state(self) == kernel_state(self.oracle), where
        return got

    def reset(self) -> None:
        super().reset()
        self.oracle.reset()

    def restore(self, state: object) -> None:
        super().restore(state)
        self.oracle.restore(state)  # restore copies what it installs


def checked_reference_cache(
    cfg: CacheConfig, seed: int | None = None, prefetch: bool = False
) -> SetAssociativeCache:
    """A ``reference``-backend cache whose kernel is checked per call."""
    cache = SetAssociativeCache(
        cfg, seed=seed, prefetch_next_line=prefetch, backend="reference"
    )
    cache._kernel = CheckedReferenceKernel(
        n_sets=cfg.n_sets,
        assoc=cfg.assoc,
        line_bits=cfg.line_bits,
        policy=cfg.policy,
        seed=seed,
        prefetch_next_line=prefetch,
    )
    return cache
