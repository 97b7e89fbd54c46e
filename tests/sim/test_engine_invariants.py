"""Property tests for engine invariants.

The central one: **chunk-size invariance**. The engine processes
references in chunks for vectorisation, but chunking is an
implementation detail — misses, cycles, attribution and interrupt
placement must be identical for any chunk size. A violation here means
interrupt points or cache state leak across chunk boundaries.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.cache.policies import ReplacementPolicy
from repro.core.sampling import SamplingProfiler
from repro.core.search import NWaySearch
from repro.sim.engine import Simulator
from repro.sim.session import SimulationSession
from repro.workloads.compile import compile_workload
from repro.workloads.synthetic import SyntheticStreams
from tests.sim.test_multicore_session import CompiledTrace, contents


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


def fractional_run(rate, tool, chunk_size, interval=300):
    """Everything a run at ``rate`` cycles/ref stamps with its clock: the
    app and instrumentation cycles, every interrupt record and the
    measured profile."""
    workload = SyntheticStreams(
        {"A": (256 * 1024, 55), "B": (256 * 1024, 45)},
        rounds=4,
        lines_per_round=3000,
        interleaved=True,
        seed=1,
        cycles_per_ref=rate,
    )
    tools = {
        "none": None,
        "sampling": SamplingProfiler(period=101),
        "search": NWaySearch(n=4, interval_cycles=interval),
    }
    sim = Simulator(CacheConfig(size=32 * 1024, assoc=4), seed=1, chunk_size=chunk_size)
    result = sim.run(workload, tool=tools[tool])
    return (
        result.stats.app_cycles,
        result.stats.instr_cycles,
        result.stats.interrupts.records,
        None if result.measured is None else result.measured.as_dict(),
    )


class TestFractionalRateClock:
    """A block's first k references cost ``int(k × cycles_per_ref)``
    cycles, so at a fractional rate the clock, and every interrupt it
    stamps, is the same at every chunk size, down to one reference per
    chunk. At rates below one cycle per reference a chunk must also stop
    at the reference whose cost reaches a timer deadline."""

    @settings(max_examples=12, deadline=None)
    @given(
        rate=st.sampled_from([4.3, 0.1, 2.82]),
        tool=st.sampled_from(["none", "sampling", "search"]),
        chunk=st.integers(1, 1 << 15),
        interval=st.integers(20, 2000),
    )
    @example(rate=4.3, tool="none", chunk=1, interval=300)
    @example(rate=2.82, tool="search", chunk=999, interval=57)
    @example(rate=0.1, tool="sampling", chunk=1, interval=300)
    @example(rate=0.1, tool="search", chunk=64, interval=57)
    def test_clock_is_chunk_invariant(self, rate, tool, chunk, interval):
        assert fractional_run(rate, tool, chunk, interval) == fractional_run(
            rate, tool, 1 << 15, interval
        )

    @pytest.mark.parametrize("policy", [ReplacementPolicy.LRU, ReplacementPolicy.RANDOM])
    def test_solo_fused_run_equals_stepping(self, policy):
        """The solo fused path over a compiled trace with non-dyadic
        rates, block overheads and an empty block leaves the run exactly
        as stepping it does (RANDOM: one call per stepped chunk)."""
        stream = compile_workload(CompiledTrace(seed=7))
        sim = Simulator(
            CacheConfig(size=16 * 1024, assoc=4, policy=policy), seed=7, chunk_size=700
        )

        def outcome(session):
            result = session.finalize()
            return (
                result.stats,
                result.cache_stats,
                result.actual.table(),
                session.clock.now,
                contents(session.cache),
            )

        fused = sim.start_session(CompiledTrace(seed=7), compiled=stream)
        with mock.patch.object(
            SimulationSession,
            "_run_fused",
            autospec=True,
            side_effect=SimulationSession._run_fused,
        ) as spy:
            fused.run()
        assert spy.call_count == 1
        stepped = sim.start_session(CompiledTrace(seed=7), compiled=stream)
        while stepped.step():
            pass
        assert outcome(fused) == outcome(stepped)


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
