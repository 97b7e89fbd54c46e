"""Property-based tests for the cache models.

Three structural invariants that must hold for *any* reference stream:

* **LRU inclusion** — with the set mapping held fixed (same number of
  sets), a higher-associativity LRU cache's contents are a superset of a
  lower-associativity one's, so it can never miss where the smaller
  cache hits (Mattson et al.'s stack property, which is also what makes
  miss-ratio curves from one pass valid).
* **miss_budget exactness** — a budgeted access stops at exactly the
  reference whose miss exhausts the budget, and resubmitting the
  remainder reproduces the unbudgeted run bit-for-bit. The simulation
  engine relies on this to deliver counter-overflow interrupts at the
  precise reference rather than at chunk granularity.
* **direct-mapped equivalence** — a one-reference-at-a-time
  direct-mapped model and a 1-way SetAssociativeCache on every kernel
  backend are the same machine: identical miss masks, stats, and budget
  behaviour.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import make_cache
from repro.cache.config import CacheConfig
from repro.cache.kernels import KERNEL_BACKENDS
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

LINE = 64
N_SETS = 8  # tiny cache so random streams actually conflict


def config(assoc):
    return CacheConfig(size=LINE * assoc * N_SETS, line_size=LINE, assoc=assoc)


@st.composite
def line_streams(draw):
    """A reference stream as line numbers over a small, conflict-heavy
    address range (a few times the cache's line capacity)."""
    n = draw(st.integers(1, 400))
    max_line = draw(st.integers(N_SETS, N_SETS * 8))
    lines = draw(st.lists(st.integers(0, max_line), min_size=n, max_size=n))
    return np.asarray(lines, dtype=np.uint64) * np.uint64(LINE)


def direct_mapped_misses(addrs):
    """Miss mask of a direct-mapped cache, one reference at a time: a
    reference hits iff its set still holds its line."""
    resident: dict[int, int] = {}
    misses = []
    for line in (addrs // np.uint64(LINE)).tolist():
        misses.append(resident.get(line % N_SETS) != line)
        resident[line % N_SETS] = line
    return np.asarray(misses, dtype=bool)


class TestLRUInclusion:
    @settings(max_examples=60, deadline=None)
    @given(line_streams(), st.sampled_from([(1, 2), (2, 4), (1, 4), (4, 8)]))
    def test_larger_assoc_never_misses_where_smaller_hits(self, addrs, pair):
        small_assoc, big_assoc = pair
        small = SetAssociativeCache(config(small_assoc))
        big = SetAssociativeCache(config(big_assoc))
        small_miss = small.access(addrs).miss_mask
        big_miss = big.access(addrs).miss_mask
        # Inclusion: a miss in the bigger cache implies one in the smaller.
        assert not np.any(big_miss & ~small_miss)
        assert big.stats.misses <= small.stats.misses

    @settings(max_examples=30, deadline=None)
    @given(line_streams())
    def test_inclusion_fails_without_lru_is_not_assumed(self, addrs):
        # FIFO gives no inclusion guarantee; we only assert the weaker
        # sanity property that both caches classify cold lines as misses.
        cfg = CacheConfig(
            size=LINE * 2 * N_SETS, line_size=LINE, assoc=2,
            policy=ReplacementPolicy.FIFO,
        )
        cache = SetAssociativeCache(cfg)
        miss = cache.access(addrs).miss_mask
        first_touch = np.zeros(len(addrs), dtype=bool)
        seen = set()
        for i, a in enumerate((addrs >> np.uint64(6)).tolist()):
            if a not in seen:
                first_touch[i] = True
                seen.add(a)
        assert np.all(miss[first_touch])


class TestMissBudget:
    @settings(max_examples=60, deadline=None)
    @given(line_streams(), st.integers(1, 50), st.sampled_from([1, 2, 4]))
    def test_budget_stops_at_overflowing_reference(self, addrs, budget, assoc):
        reference = SetAssociativeCache(config(assoc))
        full = reference.access(addrs).miss_mask
        total = int(full.sum())

        cache = SetAssociativeCache(config(assoc))
        res = cache.access(addrs, miss_budget=budget)
        if budget > total:
            assert res.consumed == len(addrs)
            assert np.array_equal(res.miss_mask, full)
        else:
            # Consumed ends exactly at the budget-th miss, inclusive.
            stop = int(np.flatnonzero(full)[budget - 1]) + 1
            assert res.consumed == stop
            assert int(res.miss_mask.sum()) == budget
            assert np.array_equal(res.miss_mask, full[:stop])
            # Resubmitting the remainder completes the unbudgeted run.
            rest = cache.access(addrs[stop:])
            assert np.array_equal(rest.miss_mask, full[stop:])
            assert cache.stats.misses == total
            assert cache.stats.accesses == len(addrs)

    @settings(max_examples=40, deadline=None)
    @given(line_streams(), st.integers(1, 50))
    def test_budget_direct_mapped(self, addrs, budget):
        for backend in KERNEL_BACKENDS:
            reference = make_cache(config(1), backend=backend)
            full = reference.access(addrs).miss_mask
            total = int(full.sum())

            cache = make_cache(config(1), backend=backend)
            res = cache.access(addrs, miss_budget=budget)
            if budget > total:
                assert res.consumed == len(addrs), backend
            else:
                stop = int(np.flatnonzero(full)[budget - 1]) + 1
                assert res.consumed == stop, backend
                assert int(res.miss_mask.sum()) == budget, backend
                rest = cache.access(addrs[stop:])
                assert np.array_equal(rest.miss_mask, full[stop:]), backend


class TestDirectMappedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(line_streams())
    def test_matches_one_way_set_assoc(self, addrs):
        want = direct_mapped_misses(addrs)
        for backend in KERNEL_BACKENDS:
            cache = make_cache(config(1), backend=backend)
            res = cache.access(addrs)
            assert np.array_equal(res.miss_mask, want), backend
            assert cache.stats.misses == int(want.sum()), backend
            touched = {int(a) // LINE % N_SETS for a in addrs}
            assert cache.contents_line_count() == len(touched), backend

    @settings(max_examples=40, deadline=None)
    @given(line_streams(), st.integers(1, 30))
    def test_matches_one_way_under_budget(self, addrs, budget):
        want = direct_mapped_misses(addrs)
        hits_budget = int(want.sum()) >= budget
        stop = int(np.flatnonzero(want)[budget - 1]) + 1 if hits_budget else len(addrs)
        for backend in KERNEL_BACKENDS:
            cache = make_cache(config(1), backend=backend)
            res = cache.access(addrs, miss_budget=budget)
            assert res.consumed == stop, backend
            assert np.array_equal(res.miss_mask, want[:stop]), backend
