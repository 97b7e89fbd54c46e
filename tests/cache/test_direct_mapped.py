"""The direct-mapped (1-way) geometry on every kernel backend.

A 1-way cache is a :class:`SetAssociativeCache` like any other, built by
``make_cache(CacheConfig(assoc=1))`` on the selected kernel. Every test
here runs each backend through the same behaviour — cold/hot, in-chunk
conflicts, state across chunks, miss budgets, write masks — and holds
``array`` and ``auto`` bit-identical to ``reference``, including the
``auto`` switch under RANDOM replacement and a snapshot across it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.cache import CacheConfig, ReplacementPolicy, make_cache
from repro.cache.kernels import KERNEL_BACKENDS
from repro.cache.kernels.auto import PROBE_REFS
from repro.sanitize.rng import verify_cache_rng
from repro.sim.engine import Simulator
from repro.sim.session import SimulationSession
from repro.workloads.synthetic import SyntheticStreams


def cfg_dm(n_sets=64, **kwargs):
    return CacheConfig(size=64 * n_sets, line_size=64, assoc=1, **kwargs)


def caches(n_sets=64, **kwargs):
    """One 1-way cache per backend, built the way experiments build them."""
    cfg = cfg_dm(n_sets, **kwargs)
    return {b: make_cache(cfg, seed=7, backend=b) for b in KERNEL_BACKENDS}


def addrs_of_lines(line_numbers, line_size=64):
    return np.asarray(line_numbers, dtype=np.uint64) * np.uint64(line_size)


def all_sets(cache):
    return [cache.lines_in_set(s) for s in range(cache.config.n_sets)]


class TestBasics:
    def test_cold_then_hot(self):
        for backend, c in caches().items():
            assert c.backend == backend
            assert c.access(addrs_of_lines([0, 1, 2])).n_misses == 3, backend
            assert c.access(addrs_of_lines([0, 1, 2])).n_misses == 0, backend

    def test_conflict_within_chunk(self):
        for backend, c in caches(n_sets=4).items():
            # lines 0 and 4 share set 0: miss, miss, miss, miss.
            res = c.access(addrs_of_lines([0, 4, 0, 4]))
            assert res.n_misses == 4, backend

    def test_repeat_within_chunk_hits(self):
        for backend, c in caches(n_sets=4).items():
            res = c.access(addrs_of_lines([7, 7, 7]))
            assert res.n_misses == 1, backend

    def test_state_carries_across_chunks(self):
        for backend, c in caches(n_sets=4).items():
            c.access(addrs_of_lines([1]))
            assert c.access(addrs_of_lines([1])).n_misses == 0, backend
            c.access(addrs_of_lines([5]))  # evicts line 1 (same set)
            assert c.access(addrs_of_lines([1])).n_misses == 1, backend

    def test_contents_and_reset(self):
        for backend, c in caches().items():
            c.access(addrs_of_lines([0, 1]))
            assert c.contents_line_count() == 2, backend
            assert c.contains_addr(64), backend
            c.reset()
            assert c.contents_line_count() == 0, backend

    def test_empty_access(self):
        for backend, c in caches().items():
            assert c.access(np.array([], dtype=np.uint64)).consumed == 0, backend

    def test_write_mask_counts_writebacks(self):
        """A miss that evicts a dirty line writes it back, at assoc=1 as
        at every other associativity."""
        rng = np.random.default_rng(4)
        lines = rng.integers(0, 64, 3000)
        writes = rng.random(len(lines)) < 0.4
        resident: dict[int, tuple[int, bool]] = {}
        expected = 0
        for line, write in zip(lines.tolist(), writes.tolist()):
            held = resident.get(line % 16)
            if held is not None and held[0] == line:
                resident[line % 16] = (line, held[1] or write)
                continue
            expected += held is not None and held[1]
            resident[line % 16] = (line, write)
        assert expected > 0
        for backend, c in caches(n_sets=16).items():
            addrs = addrs_of_lines(lines)
            for pos in range(0, len(addrs), 700):
                c.access(addrs[pos : pos + 700], writes=writes[pos : pos + 700])
            assert c.stats.writebacks == expected, backend
            assert c.dirty_line_count() == sum(d for _, d in resident.values())


class TestMissBudget:
    def test_budget_stops_at_crossing(self):
        stream = addrs_of_lines(np.arange(100))
        for backend, c in caches().items():
            res = c.access(stream, miss_budget=5)
            assert (res.consumed, res.n_misses) == (5, 5), backend

    def test_snapshot_replay_preserves_state(self):
        """After a budget-limited access, the cache state must reflect only
        the consumed prefix (the rollback must be exact)."""
        stream = addrs_of_lines([0, 8, 1, 9, 2, 10])
        unbudgeted = caches(n_sets=8)
        for backend, budgeted in caches(n_sets=8).items():
            res = budgeted.access(stream, miss_budget=3)
            assert res.consumed == 3, backend
            unbudgeted[backend].access(stream[: res.consumed])
            assert all_sets(budgeted) == all_sets(unbudgeted[backend]), backend

    def test_resume_equals_unsplit(self):
        rng = np.random.default_rng(1)
        stream = addrs_of_lines(rng.integers(0, 64, 2000))
        whole = caches(n_sets=32)
        for backend, split in caches(n_sets=32).items():
            full = whole[backend].access(stream)
            parts = []
            pos = 0
            while pos < len(stream):
                res = split.access(stream[pos:], miss_budget=13)
                parts.append(res.miss_mask)
                pos += res.consumed
            assert np.array_equal(full.miss_mask, np.concatenate(parts)), backend


class TestEquivalence:
    """``array`` and ``auto`` must agree exactly with the ``reference``
    kernel at assoc=1 on any reference stream, under any policy."""

    def _check(self, line_stream, n_sets, chunk, policy=ReplacementPolicy.LRU):
        addrs = addrs_of_lines(line_stream)
        models = caches(n_sets=n_sets, policy=policy)
        ref = models.pop("reference")
        for pos in range(0, len(addrs), chunk):
            want = ref.access(addrs[pos : pos + chunk]).miss_mask
            for backend, cache in models.items():
                got = cache.access(addrs[pos : pos + chunk]).miss_mask
                assert np.array_equal(got, want), backend
        for backend, cache in models.items():
            assert cache.stats.__dict__ == ref.stats.__dict__, backend
            assert all_sets(cache) == all_sets(ref), backend

    def test_random_stream(self):
        rng = np.random.default_rng(7)
        lines = rng.integers(0, 256, 5000)
        for policy in ReplacementPolicy:
            self._check(lines, n_sets=64, chunk=512, policy=policy)

    def test_adversarial_same_set(self):
        # Heavy duplicate sets within a chunk stress the vectorised phases.
        self._check([0, 64, 0, 64, 0, 0, 64, 128, 0] * 50, n_sets=64, chunk=64)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 63), min_size=1, max_size=400),
        st.sampled_from([1, 7, 64, 400]),
    )
    def test_property_equivalence(self, lines, chunk):
        self._check(lines, n_sets=16, chunk=chunk)


def miss_heavy(n, seed=5):
    """Uniform lines over 8x a 256-line cache: miss density ~0.9."""
    rng = np.random.default_rng(seed)
    return addrs_of_lines(rng.integers(0, 2048, n)), rng.random(n) < 0.3


class TestAutoSwitch:
    """At assoc=1 under RANDOM, a miss-heavy stream makes ``auto`` switch
    from the array to the reference kernel after :data:`PROBE_REFS`."""

    CHUNK = 1 << 14

    def _run(self, cache, addrs, writes):
        masks = []
        for pos in range(0, len(addrs), self.CHUNK):
            sl = slice(pos, pos + self.CHUNK)
            masks.append(cache.access(addrs[sl], writes=writes[sl]).miss_mask)
        return np.concatenate(masks)

    def test_switch_is_bit_identical(self):
        addrs, writes = miss_heavy(PROBE_REFS + 30_000)
        models = caches(n_sets=256, policy=ReplacementPolicy.RANDOM)
        masks = {b: self._run(c, addrs, writes) for b, c in models.items()}
        assert models["auto"]._kernel._inner.name == "reference"
        ref = models["reference"]
        assert ref.stats.writebacks > 0
        for backend in ("array", "auto"):
            cache = models[backend]
            assert np.array_equal(masks[backend], masks["reference"]), backend
            assert cache.stats.__dict__ == ref.stats.__dict__, backend
            assert all_sets(cache) == all_sets(ref), backend
            inner = getattr(cache._kernel, "_inner", cache._kernel)
            assert inner._rand_draws == ref._kernel._rand_draws, backend

    def test_snapshot_restore_across_switch(self):
        addrs, writes = miss_heavy(PROBE_REFS + 30_000)
        head = PROBE_REFS + self.CHUNK  # past the switch
        models = caches(n_sets=256, policy=ReplacementPolicy.RANDOM)
        for cache in models.values():
            self._run(cache, addrs[:head], writes[:head])
        auto = models["auto"]
        assert auto._kernel._inner.name == "reference"
        fresh = make_cache(auto.config, seed=7, backend="auto")
        fresh.state_restore(auto.state_snapshot())
        assert fresh._kernel._inner.name == "reference"
        verify_cache_rng(fresh)
        tail = (addrs[head:], writes[head:])
        want = self._run(models["reference"], *tail)
        assert np.array_equal(self._run(fresh, *tail), want)
        assert np.array_equal(self._run(auto, *tail), want)
        verify_cache_rng(fresh)

    @pytest.fixture
    def active(self):
        sanitize.reset_checks()
        sanitize.activate()
        yield sanitize
        sanitize.deactivate()
        sanitize.reset_checks()

    def test_session_restore_replays_rng_under_sanitizer(self, active):
        """REPRO_SANITIZE=1's RNG replay check passes on a session
        restored after ``auto`` switched at assoc=1."""

        def workload():
            return SyntheticStreams(
                {"A": (512 * 1024, 60), "B": (512 * 1024, 40)},
                rounds=3,
                lines_per_round=30_000,
                seed=4,
            )

        cfg = cfg_dm(n_sets=256, policy=ReplacementPolicy.RANDOM, backend="auto")
        sim = Simulator(cfg, seed=3)
        whole = sim.run(workload())
        session = sim.start_session(workload())
        while session.stats.app_refs <= PROBE_REFS:
            assert session.step()
        assert session.cache._kernel._inner.name == "reference"
        restored = SimulationSession.restore(session.snapshot(), workload())
        assert sanitize.checks_run()["rng.replay"] >= 1
        assert restored.cache._kernel._inner.name == "reference"
        while restored.step():
            pass
        result = restored.finalize()
        assert result.stats.app_misses == whole.stats.app_misses
        assert result.actual.as_dict() == whole.actual.as_dict()
