"""The "auto" kernel backend: decision logic and bit-identity.

``backend="auto"`` starts on the array kernel, watches a probe window,
and switches to the reference kernel where the array kernel runs
serially: on a miss-dense stream under RANDOM replacement, and on calls
a miss budget keeps cutting short (a sampler's interrupts) at any miss
density.
Whatever it decides, results must be bit-identical to both fixed
backends — the choice is a speed knob.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.cache.kernels import make_kernel
from repro.cache.kernels.auto import (
    PROBE_CUT_CALLS,
    PROBE_REFS,
    AutoKernel,
)
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import SimulationError

CFG_LRU = dict(size=16 * 1024, line_size=64, assoc=4)


def _uniform(n, n_lines, seed=3):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_lines, n).astype(np.uint64) * np.uint64(64)


def _run(backend, addrs, policy=ReplacementPolicy.LRU, chunk=1 << 14):
    cfg = CacheConfig(policy=policy, backend=backend, **CFG_LRU)
    cache = SetAssociativeCache(cfg, seed=7)
    for pos in range(0, len(addrs), chunk):
        cache.access(addrs[pos : pos + chunk])
    return cache


class TestDecision:
    def test_config_backend_auto_builds_the_auto_kernel(self):
        cache = SetAssociativeCache(CacheConfig(backend="auto", **CFG_LRU), seed=7)
        assert isinstance(cache._kernel, AutoKernel)

    def test_lru_stays_on_the_array_kernel(self):
        addrs = _uniform(PROBE_REFS + 4096, n_lines=2048)
        cache = _run("auto", addrs)
        assert cache._kernel._decided
        assert cache._kernel._cut_calls == 0  # unbudgeted calls are never cut
        assert cache._kernel._inner.name == "array"

    def test_conflict_heavy_random_switches_to_reference(self):
        # 8x the cache in lines -> miss density far above the threshold.
        addrs = _uniform(PROBE_REFS + 4096, n_lines=2048)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._decided
        assert cache._kernel._inner.name == "reference"

    def test_cache_resident_random_keeps_the_array_kernel(self):
        # Everything fits: near-zero miss density, no reason to switch.
        addrs = _uniform(PROBE_REFS + 4096, n_lines=128)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._decided
        assert cache._kernel._inner.name == "array"


class TestBitIdentity:
    @pytest.mark.parametrize(
        "policy",
        [ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM],
    )
    def test_auto_matches_fixed_backends_across_the_switch(self, policy):
        # Long enough to cross the probe boundary mid-stream.
        addrs = _uniform(PROBE_REFS + 50_000, n_lines=2048)
        stats = {
            backend: _run(backend, addrs, policy=policy).stats
            for backend in ("reference", "array", "auto")
        }
        baseline = stats["reference"]
        for backend in ("array", "auto"):
            assert stats[backend].misses == baseline.misses, backend
            assert stats[backend].writebacks == baseline.writebacks, backend
            assert stats[backend].accesses == baseline.accesses, backend


class TestSnapshot:
    def test_snapshot_preserves_the_committed_decision(self):
        addrs = _uniform(PROBE_REFS + 40_000, n_lines=2048)
        cache = _run("auto", addrs, policy=ReplacementPolicy.RANDOM)
        assert cache._kernel._inner.name == "reference"
        state = cache._kernel.snapshot()

        fresh = SetAssociativeCache(
            CacheConfig(
                policy=ReplacementPolicy.RANDOM, backend="auto", **CFG_LRU
            ),
            seed=7,
        )
        fresh._kernel.restore(state)
        assert fresh._kernel._decided
        assert fresh._kernel._inner.name == "reference"

        # Both continue identically from the restored state.
        tail = _uniform(30_000, n_lines=2048, seed=9)
        r1 = cache._kernel.access(tail)
        r2 = fresh._kernel.access(tail)
        assert r1.misses == r2.misses
        assert r1.writebacks == r2.writebacks

    def test_snapshot_preserves_a_pending_probe(self):
        addrs = _uniform(1 << 12, n_lines=2048)
        cache = _run("auto", addrs, chunk=1 << 12)
        kernel = cache._kernel
        assert not kernel._decided
        state = kernel.snapshot()
        fresh = SetAssociativeCache(
            CacheConfig(backend="auto", **CFG_LRU), seed=7
        )
        fresh._kernel.restore(state)
        assert not fresh._kernel._decided
        assert fresh._kernel._probe_refs == kernel._probe_refs
        assert fresh._kernel._probe_misses == kernel._probe_misses


# ---------------------------------------------------- budget-cut trigger

POLICIES = list(ReplacementPolicy)

#: A 16 KiB 4-way geometry: 64 sets of 64-byte lines.
GEOMETRY = dict(n_sets=64, assoc=4, line_bits=6)


def _kernels(policy, seed=7):
    return {
        name: make_kernel(name, policy=policy, seed=seed, **GEOMETRY)
        for name in ("reference", "array", "auto")
    }


def _dirty_lines(kernel):
    kernel = getattr(kernel, "_inner", kernel)
    if kernel.name == "reference":
        return set(kernel._dirty)
    return set(kernel._tags2d[kernel._dirty2d != 0].tolist())


def _assert_same_state(kernels):
    ref = kernels["reference"]
    for name, kernel in kernels.items():
        for s_idx in range(ref.n_sets):
            assert kernel.lines_in_set(s_idx) == ref.lines_in_set(s_idx), name
        assert _dirty_lines(kernel) == _dirty_lines(ref), name
        inner = getattr(kernel, "_inner", kernel)
        assert inner._rand_pool == ref._rand_pool, name
        assert inner._rand_draws == ref._rand_draws, name


def _sampler_calls(
    kernels, stream, budget, n_calls, offered=2000, seed=3, writes=False
):
    """Feed every kernel the same budgeted calls, the way a sampling
    session does: each call is offered the next ``offered`` references
    and resumes where the last one stopped. With ``writes``, every third
    call from the third on carries a write mask (the first one moves
    ``auto`` to the reference kernel). Asserts equal results per call;
    yields the count of calls cut short so far after each call."""
    rng = np.random.default_rng(seed)
    pos = cut = 0
    for k in range(n_calls):
        chunk = stream[pos : pos + offered]
        writes_k = rng.random(len(chunk)) < 0.3 if writes and k % 3 == 2 else None
        results = {
            name: kernel.access(chunk, miss_budget=budget, writes=writes_k)
            for name, kernel in kernels.items()
        }
        want = results["reference"]
        for name, got in results.items():
            assert got.consumed == want.consumed, (name, k)
            assert np.array_equal(got.miss_mask, want.miss_mask), (name, k)
            assert (got.misses, got.writebacks) == (
                want.misses,
                want.writebacks,
            ), (name, k)
        cut += want.consumed < len(chunk)
        pos += want.consumed
        yield cut


def _sparse_stream(n, seed=4):
    """Lines 0..127 (two per set, so resident once touched) with a cold
    line every 200 references: miss density 0.005 once warm."""
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, 128, n).astype(np.uint64)
    lines[::200] = 1_000_000 + np.arange(len(lines[::200]), dtype=np.uint64)
    return lines << np.uint64(6)


class TestBudgetCutTrigger:
    """Calls cut short by their miss budget close the probe after
    :data:`PROBE_CUT_CALLS` of them, long before :data:`PROBE_REFS`."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_dense_stream_switches_at_the_kth_cut_call(self, policy):
        kernels = _kernels(policy)
        auto = kernels["auto"]
        stream = _uniform(200_000, n_lines=2048)
        for cut in _sampler_calls(kernels, stream, 20, PROBE_CUT_CALLS + 30):
            assert auto._decided == (cut >= PROBE_CUT_CALLS)
            want = "reference" if cut >= PROBE_CUT_CALLS else "array"
            assert auto._inner.name == want
        assert auto._probe_refs < PROBE_REFS
        _assert_same_state(kernels)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_sparse_stream_switches_at_kth_cut(self, policy):
        """Cut calls switch whatever the miss density: the leader walk
        steps through line changes only, so even a stream that misses
        once in 200 references runs faster on the reference kernel."""
        kernels = _kernels(policy)
        auto = kernels["auto"]
        for kernel in kernels.values():  # warm: the hot lines, unbudgeted
            kernel.access(np.arange(128, dtype=np.uint64) << np.uint64(6))
        stream = _sparse_stream(100_000)
        for cut in _sampler_calls(kernels, stream, 5, PROBE_CUT_CALLS + 10):
            assert auto._decided == (cut >= PROBE_CUT_CALLS)
            want = "reference" if cut >= PROBE_CUT_CALLS else "array"
            assert auto._inner.name == want
        assert auto._probe_refs < PROBE_REFS
        # Density under 0.02 (0.005 once warm; the warm-up's misses count).
        assert 50 * auto._probe_misses < auto._probe_refs
        _assert_same_state(kernels)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_snapshot_mid_probe_switches_at_the_same_call(self, policy):
        stream = _uniform(200_000, n_lines=2048)
        kernels = _kernels(policy)
        auto = kernels["auto"]
        calls = _sampler_calls(kernels, stream, 20, 200)
        cut = next(calls)
        while cut < PROBE_CUT_CALLS - 3:
            cut = next(calls)
        state = auto.snapshot()
        restored = make_kernel("auto", policy=policy, seed=7, **GEOMETRY)
        restored.restore(state)
        assert not restored._decided
        assert restored._cut_calls == auto._cut_calls == cut
        # Continue the same sampled stream on the restored kernel too.
        kernels["restored"] = restored
        for cut in calls:
            assert restored._decided == auto._decided == (cut >= PROBE_CUT_CALLS)
            assert restored._inner.name == auto._inner.name
            if cut >= PROBE_CUT_CALLS + 5:
                break
        assert restored._inner.name == "reference"
        _assert_same_state(kernels)

    def test_snapshot_with_the_old_tag_is_refused_by_name(self):
        kernel = make_kernel("auto", policy=ReplacementPolicy.LRU, **GEOMETRY)
        inner = kernel._inner.snapshot()
        old = ("auto-v1", "array", 10, 2, False, inner)
        with pytest.raises(SimulationError, match="'auto-v1'"):
            kernel.restore(old)


# ------------------------------------------- the array kernel's mirror


class TestMirrorCallsRunOnReference:
    """On a write mask without ``victims``, and on every call of a
    prefetching kernel, the array kernel can only mirror the reference
    loop; ``auto`` runs such calls on the reference kernel outright."""

    @pytest.mark.parametrize("budget", [None, 20], ids=["unbudgeted", "budgeted"])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_first_write_mask_call_switches_before_it_runs(self, policy, budget):
        kernels = _kernels(policy)
        auto = kernels["auto"]
        array = auto._inner
        stream = _uniform(200_000, n_lines=2048)
        with mock.patch.object(
            array, "_access_exact", side_effect=AssertionError("mirror ran")
        ):
            calls = _sampler_calls(kernels, stream, budget, 12, writes=True)
            for k, _ in enumerate(calls):
                assert auto._inner.name == ("reference" if k >= 2 else "array")
                assert auto._decided == (k >= 2)
        _assert_same_state(kernels)

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_prefetching_kernel_starts_on_reference(self, policy):
        kernels = {
            name: make_kernel(
                name, policy=policy, seed=7, prefetch_next_line=True, **GEOMETRY
            )
            for name in ("reference", "array", "auto")
        }
        auto = kernels["auto"]
        assert auto._decided and auto._inner.name == "reference"
        stream = _uniform(100_000, n_lines=2048)
        for _ in _sampler_calls(kernels, stream, None, 10, writes=True):
            assert auto._inner.name == "reference"
        _assert_same_state(kernels)

    @pytest.mark.parametrize("prefetch", [False, True], ids=["writes", "prefetch"])
    def test_snapshot_after_the_switch_restores_onto_reference(self, prefetch):
        policy = ReplacementPolicy.RANDOM
        kernels = {
            name: make_kernel(
                name, policy=policy, seed=7, prefetch_next_line=prefetch, **GEOMETRY
            )
            for name in ("reference", "array", "auto")
        }
        stream = _uniform(100_000, n_lines=2048)
        calls = _sampler_calls(kernels, stream, None, 40, writes=True)
        for _ in range(4):
            next(calls)
        auto = kernels["auto"]
        assert auto._inner.name == "reference"
        restored = make_kernel(
            "auto", policy=policy, seed=7, prefetch_next_line=prefetch, **GEOMETRY
        )
        restored.restore(auto.snapshot())
        assert restored._decided and restored._inner.name == "reference"
        kernels["restored"] = restored
        for _ in calls:
            assert restored._inner.name == "reference"
        _assert_same_state(kernels)
