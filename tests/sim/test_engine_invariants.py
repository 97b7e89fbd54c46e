"""Property tests for engine invariants.

The central one: **chunk-size invariance**. The engine processes
references in chunks for vectorisation, but chunking is an
implementation detail — misses, cycles, attribution and interrupt
placement must be identical for any chunk size. A violation here means
interrupt points or cache state leak across chunk boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core.sampling import SamplingProfiler
from repro.core.search import NWaySearch
from repro.sim.engine import Simulator
from repro.workloads.synthetic import SyntheticStreams


def make_wl(seed=0):
    return SyntheticStreams(
        {"A": (256 * 1024, 55), "B": (256 * 1024, 45)},
        rounds=4,
        lines_per_round=3000,
        interleaved=True,
        seed=seed,
    )


def run_with_chunk(chunk_size, tool=None):
    sim = Simulator(CacheConfig(size=32 * 1024, assoc=4), seed=1, chunk_size=chunk_size)
    return sim.run(make_wl(seed=1), tool=tool)


class TestChunkInvariance:
    @pytest.mark.parametrize("chunk", [64, 1000, 7777, 1 << 16])
    def test_baseline_invariant(self, chunk):
        reference = run_with_chunk(1 << 15)
        other = run_with_chunk(chunk)
        assert other.stats.app_misses == reference.stats.app_misses
        assert other.stats.app_cycles == reference.stats.app_cycles
        assert other.actual.as_dict() == reference.actual.as_dict()

    @pytest.mark.parametrize("chunk", [128, 3001])
    def test_sampling_invariant(self, chunk):
        """Interrupt placement (and thus every sample) must not depend on
        chunking."""
        ref = run_with_chunk(1 << 15, tool=SamplingProfiler(period=211))
        other = run_with_chunk(chunk, tool=SamplingProfiler(period=211))
        assert other.measured.as_dict() == ref.measured.as_dict()
        assert len(other.stats.interrupts) == len(ref.stats.interrupts)
        assert other.stats.instr_cycles == ref.stats.instr_cycles

    @pytest.mark.parametrize("chunk", [512, 4099])
    def test_search_invariant(self, chunk):
        ref = run_with_chunk(1 << 15, tool=NWaySearch(n=4, interval_cycles=20_000))
        other = run_with_chunk(chunk, tool=NWaySearch(n=4, interval_cycles=20_000))
        assert other.measured.as_dict() == ref.measured.as_dict()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(50, 5000))
    def test_property_baseline(self, chunk):
        reference = run_with_chunk(1 << 15)
        other = run_with_chunk(chunk)
        assert other.stats.app_misses == reference.stats.app_misses


class TestCacheModelAgnostic:
    def test_direct_mapped_engine_run(self):
        """The engine drives a 1-way cache (budget cuts included) on the
        vectorised array kernel as well as on any other geometry."""
        sim = Simulator(CacheConfig(size=32 * 1024, assoc=1, backend="array"), seed=1)
        res = sim.run(make_wl(seed=1), tool=SamplingProfiler(period=173))
        assert res.measured.rank_of("A") == 1
        total = res.stats.total_misses
        assert abs(res.tool.total_samples - total // 173) <= 2

    def test_hierarchy_engine_run(self):
        sim = Simulator(
            CacheConfig(size=64 * 1024, assoc=4),
            l1_config=CacheConfig(size=8 * 1024, assoc=2),
            seed=1,
        )
        res = sim.run(make_wl(seed=1), tool=SamplingProfiler(period=173))
        assert res.measured.rank_of("A") == 1

    def test_prefetch_engine_run(self):
        sim = Simulator(
            CacheConfig(size=32 * 1024, assoc=4), prefetch_next_line=True, seed=1
        )
        res = sim.run(make_wl(seed=1))
        plain = run_with_chunk(1 << 15)
        assert res.stats.app_misses < plain.stats.app_misses


class TestDeterminismAcrossModels:
    def test_dm_vs_assoc1_loop_same_attribution(self):
        """Engine-style block loop over a 1-way cache: every kernel
        backend yields the same attribution."""
        from repro.cache import make_cache
        from repro.cache.attribution import GroundTruth
        from repro.cache.kernels import KERNEL_BACKENDS

        cfg = CacheConfig(size=32 * 1024, assoc=1)
        results = []
        for backend in KERNEL_BACKENDS:
            wl = make_wl(seed=2)
            wl.prepare()
            cache = make_cache(cfg, backend=backend)
            gt = GroundTruth(wl.object_map)
            for block in wl.blocks():
                res = cache.access(block.addrs)
                gt.observe(block.addrs[res.miss_mask])
            results.append(gt.profile().as_dict())
        assert results[0]
        assert all(r == results[0] for r in results[1:])
