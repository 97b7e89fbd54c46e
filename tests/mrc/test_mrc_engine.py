"""MRC engine orchestration: modes, per-object decomposition, cell picking."""

import numpy as np
import pytest

from repro.cache.mrc import (
    MrcError,
    StackDistanceHistogram,
    build_mrc,
    expected_misses,
    lines_of,
    mrc_from_addrs,
    select_verification_sizes,
)
from repro.workloads.registry import make_workload
from tests.mrc.olken import olken_distances


def interleaved_stream(objects, lines_each, repeats):
    """Round-robin line-stride sweeps over the given objects."""
    chunks = []
    for _ in range(repeats):
        for obj in objects:
            chunks.append(
                np.arange(obj.base, obj.base + lines_each * 64, 64, dtype=np.uint64)
            )
    return np.concatenate(chunks)


class TestMrcFromAddrs:
    def test_exact_and_rate_one_shards_agree(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 20, 20_000).astype(np.uint64)
        exact = mrc_from_addrs(addrs, mode="exact")
        full = mrc_from_addrs(addrs, mode="shards", sample_rate=1.0)
        assert full.mode == "exact"  # rate 1.0 collapses to the exact pass
        for size in (4096, 65536, 1 << 20):
            assert exact.miss_ratio(size) == full.miss_ratio(size)

    def test_matches_olken_oracle_end_to_end(self):
        rng = np.random.default_rng(2)
        addrs = rng.integers(0, 1 << 18, 30_000).astype(np.uint64)
        res = mrc_from_addrs(addrs)
        oracle = StackDistanceHistogram.from_distances(
            olken_distances(lines_of(addrs, 64))
        )
        for size in (4096, 32768, 262144):
            for assoc in (None, 1, 4):
                assert res.misses(size, assoc) == expected_misses(
                    oracle, size // 64, assoc
                )

    def test_empty_stream(self):
        res = mrc_from_addrs(np.empty(0, dtype=np.uint64))
        assert res.n_refs == 0
        assert res.miss_ratio(4096) == 0.0

    def test_rejects_unknown_mode(self):
        with pytest.raises(MrcError, match="unknown MRC mode"):
            mrc_from_addrs(np.array([0], dtype=np.uint64), mode="psychic")

    def test_rejects_empty_sample(self):
        addrs = np.zeros(100, dtype=np.uint64)  # one line only
        with pytest.raises(MrcError, match="sampled no lines"):
            mrc_from_addrs(addrs, mode="shards", sample_rate=1e-9, seed=0)

    def test_rejects_sub_line_cache(self):
        res = mrc_from_addrs(np.array([0], dtype=np.uint64))
        with pytest.raises(MrcError, match="smaller than one"):
            res.miss_ratio(32)

    def test_unknown_object_name(self):
        res = mrc_from_addrs(np.array([0], dtype=np.uint64))
        with pytest.raises(MrcError, match="no histogram"):
            res.miss_ratio(4096, name="ghost")


class TestPerObject:
    def test_partition_sums_to_aggregate(self, populated_map):
        omap, objs, _heap = populated_map
        stream = interleaved_stream([objs["A"], objs["B"], objs["h1"]], 40, 5)
        res = mrc_from_addrs(stream, snapshot=omap.snapshot(), mode="exact")
        assert set(res.object_names()) == {"A", "B", objs["h1"].name}
        # Every ref is attributed, so per-object histograms partition the
        # aggregate: misses sum exactly at every size (exact mode).
        for size in (4096, 8192, 65536):
            total = sum(
                res.misses(size, name=name) for name in res.object_names()
            )
            assert total == pytest.approx(res.misses(size))
        assert sum(h.n_refs for h in res.per_object.values()) == res.n_refs

    def test_shards_per_object_mass_matches_true_counts(self, populated_map):
        omap, objs, _heap = populated_map
        stream = interleaved_stream([objs["A"], objs["B"], objs["C"]], 60, 8)
        res = mrc_from_addrs(
            stream, snapshot=omap.snapshot(), mode="shards",
            sample_rate=0.5, seed=3,
        )
        snapshot = omap.snapshot()
        true_counts = snapshot.count_by_object(stream)
        by_name = {o.name: int(c) for o, c in zip(snapshot.objects, true_counts)}
        for name, hist in res.per_object.items():
            assert hist.n_refs == by_name[name]
            assert hist.mass == pytest.approx(by_name[name])  # SHARDS-adj


class TestBuildMrc:
    def test_compiled_and_generator_paths_identical(self):
        from repro.workloads.compile import compile_workload

        wl = make_workload("mgrid", seed=7, n_vcycles=2, fine_lines=2000)
        compiled = compile_workload(wl)
        via_compiled = build_mrc(wl, compiled=compiled, max_refs=40_000)
        via_generator = build_mrc(wl, max_refs=40_000)
        assert via_compiled.n_refs == via_generator.n_refs
        for size in (4096, 65536, 1 << 20):
            assert via_compiled.misses(size) == via_generator.misses(size)
        assert via_compiled.object_names() == via_generator.object_names()

    def test_requires_a_source(self):
        from repro.cache.mrc.engine import _collect_addrs

        with pytest.raises(MrcError, match="workload or a compiled"):
            _collect_addrs(None, None, None)


class TestSelectVerificationSizes:
    def test_picks_the_knee(self):
        # Flat at 1.0 until 256K, cliff to 0.0 at 512K: curvature peaks
        # at the two sizes flanking the drop.
        sizes = [2**b for b in range(14, 23)]
        curve = {s: (1.0 if s <= 256 * 1024 else 0.0) for s in sizes}
        chosen = select_verification_sizes(curve, k=2)
        assert chosen == [256 * 1024, 512 * 1024]

    def test_k_zero_and_oversized(self):
        curve = {1024: 1.0, 2048: 0.5, 4096: 0.1}
        assert select_verification_sizes(curve, k=0) == []
        assert select_verification_sizes(curve, k=10) == [1024, 2048, 4096]

    def test_tiny_curves(self):
        assert select_verification_sizes({4096: 0.5}, k=2) == [4096]
        assert select_verification_sizes({}, k=2) == []

    def test_interior_only_when_enough_points(self):
        sizes = [2**b for b in range(14, 22)]
        curve = {s: 1.0 / s for s in sizes}
        chosen = select_verification_sizes(curve, k=3)
        assert all(sizes[0] < s <= sizes[-2] for s in chosen) or len(chosen) == 3
