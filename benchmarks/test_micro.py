"""E9 — micro-benchmarks of the simulation substrate's hot paths.

These are classic pytest-benchmark timings (many rounds) rather than
one-shot experiment regenerations: cache access throughput, vectorised
counter windowing, object-map lookup, attribution, and the search's
data structures.
"""

import numpy as np
import pytest

from repro.cache import CacheConfig, SetAssociativeCache
from repro.datastructs.heap_pq import MaxPriorityQueue
from repro.datastructs.rbtree import RedBlackTree
from repro.hpm.counters import RegionCounterBank
from repro.memory import AddressSpace, ObjectMap, SymbolTable
from repro.util.intervals import Interval

N_REFS = 200_000
rng = np.random.default_rng(0)
ADDRS = (rng.integers(0, 1 << 22, N_REFS).astype(np.uint64) & ~np.uint64(7)) + np.uint64(
    0x1_2000_0000
)


@pytest.fixture
def object_map():
    aspace = AddressSpace()
    symbols = SymbolTable(aspace.data)
    for i in range(64):
        symbols.declare(f"v{i}", 64 * 1024)
    omap = ObjectMap()
    omap.add_globals(symbols.objects)
    omap.freeze_globals()
    return omap


class TestCacheThroughput:
    def test_set_assoc_access(self, benchmark):
        cache = SetAssociativeCache(CacheConfig(size=256 * 1024, assoc=4))

        def run():
            cache.access(ADDRS)

        benchmark(run)

    def test_direct_mapped_vectorised(self, benchmark):
        cache = SetAssociativeCache(
            CacheConfig(size=256 * 1024, assoc=1), backend="array"
        )

        def run():
            cache.access(ADDRS)

        benchmark(run)

    def test_set_assoc_with_budget(self, benchmark):
        cache = SetAssociativeCache(CacheConfig(size=256 * 1024, assoc=4))

        def run():
            pos = 0
            while pos < N_REFS:
                res = cache.access(ADDRS[pos:], miss_budget=10_000)
                pos += res.consumed

        benchmark(run)


class TestCounterWindowing:
    def test_ten_region_bank(self, benchmark):
        bank = RegionCounterBank(10)
        base = 0x1_2000_0000
        bank.program(
            [Interval(base + i * (1 << 18), base + (i + 1) * (1 << 18)) for i in range(10)]
        )
        benchmark(lambda: bank.observe(ADDRS))


class TestObjectMap:
    def test_point_lookup(self, benchmark, object_map):
        probes = [0x1_2000_0000 + int(x) for x in rng.integers(0, 1 << 22, 1000)]

        def run():
            for addr in probes:
                object_map.lookup(addr)

        benchmark(run)

    def test_bulk_attribution(self, benchmark, object_map):
        snap = object_map.snapshot()
        benchmark(lambda: snap.count_by_object(ADDRS))


class TestSearchStructures:
    def test_rbtree_insert_delete(self, benchmark):
        keys = rng.integers(0, 1 << 30, 2000).tolist()

        def run():
            tree = RedBlackTree()
            for k in keys:
                tree.insert(int(k), None)
            for k in keys[::2]:
                if k in tree:
                    tree.delete(int(k))

        benchmark(run)

    def test_priority_queue_churn(self, benchmark):
        priorities = rng.random(2000).tolist()

        def run():
            q = MaxPriorityQueue()
            for i, p in enumerate(priorities):
                q.push(i, p)
            for _ in range(1000):
                item, pr = q.pop()
                q.push(item, pr * 0.5)

        benchmark(run)
