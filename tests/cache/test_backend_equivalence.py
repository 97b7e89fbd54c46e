"""Differential harness: the "array" backend must be bit-identical to
the "reference" backend.

Randomized workloads are replayed through both backends chunk by chunk;
after every chunk the AccessResults (miss mask + consumed) and the full
CacheStats must match exactly, including mid-chunk ``miss_budget`` stops,
write masks, prefetching and the seeded RANDOM-eviction stream. At the
end the observable set state (per-set residency order, dirty counts) must
match too, so a divergence can never hide between chunks. Victim-reporting
calls (what mechanism decorators issue) are held to the same standard,
per-miss victims included.
"""

import collections
import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.cache import components
from repro.cache.components import VictimCache
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import TwoLevelCache
from repro.cache.kernels import KERNEL_BACKENDS, ArrayKernel, base, flat, reference
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache

POLICIES = list(ReplacementPolicy)


def addrs_of_lines(line_numbers, line_size=64):
    return np.asarray(line_numbers, dtype=np.uint64) * np.uint64(line_size)


def make_pair(cfg, seed=11, prefetch=False):
    return (
        SetAssociativeCache(
            cfg, seed=seed, prefetch_next_line=prefetch, backend="reference"
        ),
        SetAssociativeCache(
            cfg, seed=seed, prefetch_next_line=prefetch, backend="array"
        ),
    )


def assert_same_state(ref, arr, cfg):
    for set_idx in range(cfg.n_sets):
        assert ref.lines_in_set(set_idx) == arr.lines_in_set(set_idx), set_idx
    assert ref.contents_line_count() == arr.contents_line_count()
    assert ref.dirty_line_count() == arr.dirty_line_count()


def replay(ref, arr, chunks, budgets=None, writes=None):
    """Feed both backends the same chunks, asserting equality throughout."""
    for k, chunk in enumerate(chunks):
        budget = budgets[k] if budgets is not None else None
        w = writes[k] if writes is not None else None
        pos = 0
        while pos < len(chunk):
            sub = chunk[pos:]
            sub_w = w[pos:] if w is not None else None
            ra = ref.access(sub, miss_budget=budget, writes=sub_w)
            rb = arr.access(sub, miss_budget=budget, writes=sub_w)
            assert ra.consumed == rb.consumed, f"chunk {k}"
            assert np.array_equal(ra.miss_mask, rb.miss_mask), f"chunk {k}"
            assert ref.stats.__dict__ == arr.stats.__dict__, f"chunk {k}"
            pos += ra.consumed


def random_stream(rng, n, n_lines, follower_frac=0.5):
    """Random lines with ``follower_frac`` consecutive same-line repeats,
    the shape the workload generators emit for spatial locality."""
    lines = rng.integers(0, n_lines, n)
    rep = rng.random(n) < follower_frac
    return addrs_of_lines(np.repeat(lines, 1 + rep.astype(int))[:n])


class TestRandomizedReplay:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("assoc", [1, 2, 4, 8])
    def test_policy_assoc_grid(self, policy, assoc):
        cfg = CacheConfig(
            size=64 * assoc * 32, line_size=64, assoc=assoc, policy=policy
        )
        ref, arr = make_pair(cfg, seed=7)
        rng = np.random.default_rng(assoc * 100 + hash(policy.value) % 97)
        chunks, budgets, writes = [], [], []
        for _ in range(25):
            n = int(rng.integers(1, 600))
            chunks.append(random_stream(rng, n, n_lines=3 * cfg.n_lines))
            budgets.append(
                int(rng.integers(1, 30)) if rng.random() < 0.5 else None
            )
            writes.append(
                rng.random(len(chunks[-1])) < 0.3
                if rng.random() < 0.5
                else None
            )
        replay(ref, arr, chunks, budgets, writes)
        assert_same_state(ref, arr, cfg)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_prefetch_equivalence(self, policy):
        cfg = CacheConfig(size=4096, line_size=64, assoc=4, policy=policy)
        ref, arr = make_pair(cfg, seed=3, prefetch=True)
        rng = np.random.default_rng(17)
        chunks = [random_stream(rng, 300, 128) for _ in range(15)]
        budgets = [int(rng.integers(1, 25)) if i % 2 else None for i in range(15)]
        writes = [rng.random(len(c)) < 0.4 for c in chunks]
        replay(ref, arr, chunks, budgets, writes)
        assert_same_state(ref, arr, cfg)
        assert ref.stats.prefetches > 0  # the feature actually fired

    def test_random_policy_pool_stays_in_sync(self):
        """RANDOM evictions must consume the shared pool identically even
        when chunk sizes (which gate the refill rule) differ wildly."""
        cfg = CacheConfig(
            size=16 * 1024, assoc=4, policy=ReplacementPolicy.RANDOM
        )
        ref, arr = make_pair(cfg, seed=123)
        rng = np.random.default_rng(5)
        for n in (1, 4096, 3, 900, 5000, 17, 2500):
            addrs = random_stream(rng, n, 2048)
            ra = ref.access(addrs)
            rb = arr.access(addrs)
            assert np.array_equal(ra.miss_mask, rb.miss_mask)
        assert_same_state(ref, arr, cfg)


class TestBatchPath:
    """Chunks large enough to trigger the array kernel's vectorised
    guaranteed-miss batching, with and without budget stops."""

    def test_streaming_chunks(self):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        base = 0
        for _ in range(5):
            lines = np.repeat(np.arange(base, base + 8000, dtype=np.uint64), 2)
            base += 8000
            replay(ref, arr, [addrs_of_lines(lines)])
        assert_same_state(ref, arr, cfg)

    def test_streaming_with_budget_stops(self):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        lines = np.repeat(np.arange(20000, dtype=np.uint64), 2)
        replay(ref, arr, [addrs_of_lines(lines)], budgets=[997])
        assert_same_state(ref, arr, cfg)

    def test_streaming_over_dirty_state(self):
        """Batched evictions must write back dirty lines left by earlier
        write chunks."""
        cfg = CacheConfig(size=8 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        warm = addrs_of_lines(np.arange(128, dtype=np.uint64))
        wmask = np.ones(128, dtype=bool)
        ref.access(warm, writes=wmask)
        arr.access(warm, writes=wmask)
        # Clean streaming sweep evicts the dirty lines via the batch path.
        sweep = addrs_of_lines(np.arange(1000, 6000, dtype=np.uint64))
        replay(ref, arr, [sweep])
        assert ref.stats.writebacks > 0
        assert ref.stats.__dict__ == arr.stats.__dict__
        assert_same_state(ref, arr, cfg)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_hit_run_promotes(self, policy):
        """All-hit chunks over a warm cache (the certified-hit run path):
        LRU promote order must match the per-reference loop exactly."""
        cfg = CacheConfig(size=64 * 1024, assoc=4, policy=policy)
        ref, arr = make_pair(cfg, seed=21)
        rng = np.random.default_rng(13)
        warm = addrs_of_lines(np.arange(1024, dtype=np.uint64))
        ref.access(warm)
        arr.access(warm)
        for _ in range(6):  # in-cache reuse: every chunk is pure hits
            replay(ref, arr, [addrs_of_lines(rng.integers(0, 1024, 8000))])
        assert ref.stats.misses == 1024  # only the warmup cold misses
        assert_same_state(ref, arr, cfg)

    def test_alternating_hit_and_miss_runs(self):
        """Chunks that alternate long hit runs with long miss runs drive
        the phase loop through both run kinds against live state."""
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        ref, arr = make_pair(cfg, seed=5)
        rng = np.random.default_rng(41)
        hot = np.arange(512, dtype=np.uint64)
        cold = 10_000
        pieces = []
        for _ in range(6):
            pieces.append(rng.permutation(hot))
            pieces.append(np.arange(cold, cold + 700, dtype=np.uint64))
            cold += 700
        chunk = addrs_of_lines(np.concatenate(pieces))
        ref.access(addrs_of_lines(hot))
        arr.access(addrs_of_lines(hot))
        replay(ref, arr, [chunk])
        replay(ref, arr, [chunk], budgets=[151])  # budget cut mid-phase
        assert_same_state(ref, arr, cfg)

    def test_fifo_streaming(self):
        cfg = CacheConfig(size=64 * 1024, assoc=8, policy=ReplacementPolicy.FIFO)
        ref, arr = make_pair(cfg)
        rng = np.random.default_rng(2)
        for _ in range(4):
            replay(ref, arr, [random_stream(rng, 8192, 4096, 0.5)])
        assert_same_state(ref, arr, cfg)


class TestHierarchyBackends:
    def make_pair(self, seed=9):
        l1 = CacheConfig(size=4 * 1024, assoc=2)
        l2 = CacheConfig(size=64 * 1024, assoc=4)
        return (
            TwoLevelCache(l1, l2, backend="reference", seed=seed),
            TwoLevelCache(l1, l2, backend="array", seed=seed),
        )

    def test_hierarchy_equivalence_with_budgets(self):
        ref, arr = self.make_pair()
        rng = np.random.default_rng(31)
        for k in range(12):
            stream = addrs_of_lines(rng.integers(0, 4096, 3000))
            budget = int(rng.integers(1, 40)) if k % 2 else None
            pos = 0
            while pos < len(stream):
                ra = ref.access(stream[pos:], miss_budget=budget)
                rb = arr.access(stream[pos:], miss_budget=budget)
                assert ra.consumed == rb.consumed
                assert np.array_equal(ra.miss_mask, rb.miss_mask)
                assert ref.stats.__dict__ == arr.stats.__dict__
                assert ref.l1_stats.__dict__ == arr.l1_stats.__dict__
                pos += ra.consumed
        assert ref.contents_line_count() == arr.contents_line_count()
        assert ref.l1_contents_line_count() == arr.l1_contents_line_count()


@pytest.fixture
def victim_paths(monkeypatch):
    """Count the array kernel's victim-reporting paths as they run."""
    seen = collections.Counter()
    in_rounds = []

    def spy(name, classify):
        original = getattr(ArrayKernel, name)

        def wrapper(self, *args, **kwargs):
            path = classify(args, kwargs)
            if path is not None:
                seen[path] += 1
            if name == "_tail_rounds":
                in_rounds.append(path)
                try:
                    return original(self, *args, **kwargs)
                finally:
                    in_rounds.pop()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ArrayKernel, name, wrapper)

    def walk_path(args, kwargs):
        if len(args) > 1 and args[1] is not None:
            return "write-mask path"
        if in_rounds and in_rounds[-1] is not None:
            return "rounds-tail fallback"
        return "sequential tail"

    spy("_fill_run", lambda a, k: "fill runs" if a[4] is not None else None)
    spy("_tail_rounds", lambda a, k: "rounds tail" if a[4] is not None else None)
    spy("_walk_sets", walk_path)
    return seen


def replay_victims(cfg, chunks, budgets=None, writes=None, seed=11):
    """Feed every backend the same chunks through victim-reporting
    calls; masks, cut points, counts, victims and state must agree."""
    caches = {
        b: SetAssociativeCache(cfg, seed=seed, backend=b) for b in KERNEL_BACKENDS
    }
    ref = caches["reference"]
    for k, chunk in enumerate(chunks):
        budget = budgets[k] if budgets is not None else None
        w = writes[k] if writes is not None else None
        pos = 0
        while pos < len(chunk):
            sub_w = w[pos:] if w is not None else None
            results = {
                b: c._chunk_access(chunk[pos:], budget, sub_w, victims=True)
                for b, c in caches.items()
            }
            want = results["reference"]
            for b, got in results.items():
                where = f"{b}, chunk {k}"
                assert got.consumed == want.consumed, where
                assert np.array_equal(got.miss_mask, want.miss_mask), where
                assert np.array_equal(got.victims, want.victims), where
                assert (got.misses, got.writebacks) == (
                    want.misses,
                    want.writebacks,
                ), where
                caches[b].commit_stage("app", got.consumed)
            pos += want.consumed
    for b in ("array", "auto"):
        assert_same_state(ref, caches[b], cfg)
        assert ref.stats.__dict__ == caches[b].stats.__dict__


class TestVictimReports:
    """``array`` and ``auto`` report the same per-miss victims as
    ``reference`` on this file's streams, through every path of the
    array kernel that can evict."""

    def test_fill_runs(self, victim_paths):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        base, chunks = 0, []
        for _ in range(4):
            chunks.append(
                addrs_of_lines(
                    np.repeat(np.arange(base, base + 8000, dtype=np.uint64), 2)
                )
            )
            base += 8000
        replay_victims(cfg, chunks, budgets=[None, 997, None, None])
        assert victim_paths["fill runs"] > 0

    @pytest.mark.parametrize(
        "policy", [ReplacementPolicy.LRU, ReplacementPolicy.FIFO], ids=lambda p: p.value
    )
    def test_rounds_tail(self, policy, victim_paths):
        cfg = CacheConfig(size=64 * 1024, assoc=8, policy=policy)
        rng = np.random.default_rng(2)
        chunks = [random_stream(rng, 8192, 4096, 0.5) for _ in range(4)]
        replay_victims(cfg, chunks)
        assert victim_paths["rounds tail"] > 0

    def test_rounds_tail_fallback(self, victim_paths):
        """A single-set pile-up sends the rounds tail to the walk."""
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        rng = np.random.default_rng(8)
        lines = rng.integers(0, 12, 4000) * cfg.n_sets
        replay_victims(cfg, [addrs_of_lines(lines)])
        assert victim_paths["rounds-tail fallback"] > 0

    def test_sequential_tail(self, victim_paths):
        cfg = CacheConfig(size=16 * 1024, assoc=4, policy=ReplacementPolicy.RANDOM)
        rng = np.random.default_rng(5)
        chunks = [
            random_stream(rng, n, 2048) for n in (1, 4096, 3, 900, 5000, 17, 2500)
        ]
        replay_victims(cfg, chunks, seed=123)
        lru = CacheConfig(size=16 * 1024, assoc=4)
        replay_victims(lru, chunks, budgets=[3, 40, None, 7, 150, None, 11])
        assert victim_paths["sequential tail"] > 0

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_write_mask_path(self, policy, victim_paths):
        cfg = CacheConfig(size=64 * 4 * 32, line_size=64, assoc=4, policy=policy)
        rng = np.random.default_rng(23)
        chunks, budgets, writes = [], [], []
        for _ in range(20):
            n = int(rng.integers(1, 600))
            chunks.append(random_stream(rng, n, n_lines=3 * cfg.n_lines))
            budgets.append(int(rng.integers(1, 30)) if rng.random() < 0.5 else None)
            writes.append(rng.random(len(chunks[-1])) < 0.3)
        replay_victims(cfg, chunks, budgets, writes, seed=7)
        assert victim_paths["write-mask path"] > 0


def budget_stream(rng, n, miss_at, hot):
    """``n`` references to resident ``hot`` lines, except cold
    (never-seen) lines at the positions ``miss_at``."""
    lines = rng.choice(hot, n).astype(np.uint64)
    lines[np.asarray(miss_at, dtype=np.int64)] = 1_000_000 + np.arange(
        len(miss_at), dtype=np.uint64
    )
    return addrs_of_lines(lines)


def warm_pair(cfg, hot, seed=11):
    ref, arr = make_pair(cfg, seed=seed)
    for cache in (ref, arr):
        cache.access(addrs_of_lines(hot))
    return ref, arr


class TestBudgetWindows:
    """Budgeted calls run in the windows of ``budget_windows``; every
    backend must cut them at the same reference wherever the budget-th
    miss falls relative to the windows."""

    CFG = CacheConfig(size=64 * 1024, assoc=4)
    HOT = np.arange(512, dtype=np.uint64)

    def cut(self, n, miss_at, budget):
        """Replay one budgeted chunk to its end on both backends; returns
        where the first call stopped."""
        ref, arr = warm_pair(self.CFG, self.HOT)
        chunk = budget_stream(np.random.default_rng(3), n, miss_at, self.HOT)
        ra = ref.access(chunk, miss_budget=budget)
        rb = arr.access(chunk, miss_budget=budget)
        assert (ra.consumed, ra.miss_mask.tolist()) == (
            rb.consumed,
            rb.miss_mask.tolist(),
        )
        replay(ref, arr, [chunk[ra.consumed :]], budgets=[budget])
        assert ref.stats.__dict__ == arr.stats.__dict__
        assert_same_state(ref, arr, self.CFG)
        return ra.consumed

    def test_budget_runs_out_on_a_window_last_reference(self):
        budget = 10
        first = max(base.FIRST_WINDOW, 4 * budget)
        miss_at = list(range(first - budget, first)) + [first + 40, 2000]
        assert self.cut(3000, miss_at, budget) == first

    def test_budget_runs_out_on_the_chunk_last_reference(self):
        n, budget = 700, 10
        assert [hi for _, hi in base.budget_windows(n, budget)] == [256, 700]
        miss_at = [5, 90, 200, 255, 256, 300, 420, 512, 600, n - 1]
        assert self.cut(n, miss_at, budget) == n

    def test_budget_never_reached_across_doublings(self):
        n, budget = 5000, 50
        assert len(list(base.budget_windows(n, budget))) >= 4
        miss_at = np.random.default_rng(9).choice(n, 20, replace=False)
        assert self.cut(n, sorted(miss_at), budget) == n

    def test_random_budgeted_calls_keep_the_pool_in_step(self):
        """RANDOM keys its pool to the offered chunk, not to the windows:
        after every cut the pool and the draw count match ``reference``."""
        cfg = CacheConfig(size=16 * 1024, assoc=4, policy=ReplacementPolicy.RANDOM)
        ref, arr = make_pair(cfg, seed=123)
        rng = np.random.default_rng(4)
        for n_lines, budget in ((300, 60), (2048, 30), (280, 5)):
            chunk = random_stream(rng, 20_000, n_lines)
            pos = 0
            while pos < len(chunk):
                ra = ref.access(chunk[pos:], miss_budget=budget)
                rb = arr.access(chunk[pos:], miss_budget=budget)
                assert ra.consumed == rb.consumed
                assert np.array_equal(ra.miss_mask, rb.miss_mask)
                assert arr._kernel._rand_pool == ref._kernel._rand_pool
                assert arr._kernel._rand_draws == ref._kernel._rand_draws
                pos += ra.consumed
        assert ref.stats.__dict__ == arr.stats.__dict__
        assert_same_state(ref, arr, cfg)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_victim_calls_under_a_budget(self, policy):
        cfg = CacheConfig(size=16 * 1024, assoc=4, policy=policy)
        rng = np.random.default_rng(6)
        chunks = [random_stream(rng, 6000, n) for n in (280, 2048, 300)]
        replay_victims(cfg, chunks, budgets=[40, 7, 60], seed=5)


class TestWorkFollowsConsumption:
    """A budgeted call's work follows what it consumes, not what it is
    offered: the array kernel's vectorised phases and the reference
    kernel's list conversion both run window by window."""

    @pytest.fixture
    def handed(self, monkeypatch):
        """References handed to the array kernel's fast path."""
        seen = []
        original = ArrayKernel._access_fast

        def spy(self, lines_arr, *args, **kwargs):
            seen.append(len(lines_arr))
            return original(self, lines_arr, *args, **kwargs)

        monkeypatch.setattr(ArrayKernel, "_access_fast", spy)
        return seen

    def test_budgeted_call_pays_for_what_it_consumes(self, handed):
        cfg = CacheConfig(size=256 * 1024, assoc=4)
        hot = np.arange(1024, dtype=np.uint64)
        ref, arr = warm_pair(cfg, hot)
        miss_at = np.arange(13, 32 * 1024, 14)
        chunk = budget_stream(np.random.default_rng(1), 32 * 1024, miss_at, hot)
        handed.clear()
        ra = ref.access(chunk, miss_budget=50)
        rb = arr.access(chunk, miss_budget=50)
        assert 650 < rb.consumed < 750
        assert (rb.consumed, rb.miss_mask.tolist()) == (
            ra.consumed,
            ra.miss_mask.tolist(),
        )
        assert sum(handed) <= 2 * max(rb.consumed, base.FIRST_WINDOW)

    @pytest.fixture
    def converted(self, monkeypatch):
        """References the reference kernel converts to lists, window by
        window."""
        seen = []

        def spy(n, miss_budget):
            for lo, hi in base.budget_windows(n, miss_budget):
                seen.append(hi - lo)
                yield lo, hi

        monkeypatch.setattr(reference, "budget_windows", spy)
        return seen

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_reference_converts_what_it_consumes(self, policy, converted):
        cfg = CacheConfig(size=256 * 1024, assoc=4, policy=policy)
        hot = np.arange(1024, dtype=np.uint64)
        ref, arr = warm_pair(cfg, hot)
        miss_at = np.arange(13, 32 * 1024, 14)
        chunk = budget_stream(np.random.default_rng(1), 32 * 1024, miss_at, hot)
        for cache in (ref, arr):
            # RANDOM sizes its pool from the offered chunk, on purpose:
            # draw it before measuring what the call itself allocates.
            cache._kernel._ensure_rand_pool(len(chunk))
        converted.clear()
        tracemalloc.start()
        try:
            ra = ref._kernel.access(chunk, miss_budget=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rb = arr._kernel.access(chunk, miss_budget=50)
        assert 650 < ra.consumed < 750
        assert (ra.consumed, ra.miss_mask.tolist()) == (
            rb.consumed,
            rb.miss_mask.tolist(),
        )
        assert converted
        assert sum(converted) <= 2 * max(ra.consumed, base.FIRST_WINDOW)
        # A list of the whole chunk would take 8 bytes a reference alone.
        assert peak < 8 * len(chunk)
        assert ref._kernel._rand_pool == arr._kernel._rand_pool
        assert_same_state(ref, arr, cfg)

    def test_reference_unbudgeted_and_victim_calls_convert_once(self, converted):
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        ref, _ = make_pair(cfg)
        chunk = addrs_of_lines(np.arange(5000, dtype=np.uint64))
        ref.access(chunk)
        assert converted == [5000]
        ref._chunk_access(chunk, 9, victims=True)
        assert converted == [5000]  # the victim walk takes no windows

    def test_short_call_computes_no_leader_positions(self, handed):
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        ref, arr = make_pair(cfg)
        refs = addrs_of_lines([7, 7, 300, 7, 12])
        for budget in (None, 1):
            ra = ref.access(refs, miss_budget=budget)
            rb = arr.access(refs, miss_budget=budget)
            assert np.array_equal(ra.miss_mask, rb.miss_mask)
        assert handed == []
        assert_same_state(ref, arr, cfg)

    def test_kernel_and_decorator_share_one_window_rule(self, monkeypatch):
        assert components.budget_windows is base.budget_windows
        assert flat.budget_windows is base.budget_windows
        assert reference.budget_windows is base.budget_windows
        calls = []

        def spy(n, miss_budget):
            calls.append((n, miss_budget))
            return base.budget_windows(n, miss_budget)

        monkeypatch.setattr(components, "budget_windows", spy)
        monkeypatch.setattr(flat, "budget_windows", spy)
        cfg = CacheConfig(size=64 * 1024, assoc=4)
        stack = VictimCache(SetAssociativeCache(cfg, backend="array"))
        chunk = addrs_of_lines(np.arange(5000, dtype=np.uint64))
        assert stack.access(chunk, miss_budget=9).consumed == 9
        assert calls[0] == (5000, 9)
        # The decorator's own windows reach the kernel unbudgeted.
        assert all(budget is None for _, budget in calls[1:])


class TestEndToEnd:
    """Whole-pipeline equality: simulated runs and experiment-grid keys."""

    def test_simulator_runs_identical(self):
        from repro.core.sampling import SamplingProfiler
        from repro.sim.engine import Simulator
        from repro.workloads.registry import make_workload

        results = {}
        for backend in ("reference", "array"):
            sim = Simulator(
                CacheConfig(size=256 * 1024, assoc=4),
                seed=99,
                backend=backend,
            )
            wl = make_workload("tomcatv", seed=99, n_steps=4, rows_per_step=16)
            tool = SamplingProfiler(period=2048, seed=99)
            results[backend] = sim.run(wl, tool=tool)
        a, b = results["reference"], results["array"]
        assert a.stats.app_refs == b.stats.app_refs
        assert a.stats.app_misses == b.stats.app_misses
        assert a.stats.app_cycles == b.stats.app_cycles
        assert a.stats.instr_refs == b.stats.instr_refs
        assert a.stats.instr_misses == b.stats.instr_misses
        assert len(a.stats.interrupts) == len(b.stats.interrupts)
        assert a.actual.as_dict() == b.actual.as_dict()
        assert a.measured.as_dict() == b.measured.as_dict()

    def test_backend_is_part_of_task_key(self):
        from repro.experiments.parallel import SimSpec, TaskSpec

        def key_for(backend):
            cfg = CacheConfig(size=256 * 1024, assoc=4, backend=backend)
            return TaskSpec(workload="tomcatv", sim=SimSpec(cache=cfg)).key()

        assert key_for("reference") != key_for("array")

    def test_backend_flows_from_config_replace(self):
        cfg = dataclasses.replace(CacheConfig(), backend="array")
        cache = SetAssociativeCache(cfg)
        assert cache.backend == "array"
