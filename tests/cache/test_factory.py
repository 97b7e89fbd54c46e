"""Tests for the cache factory and model-selection logic."""

import pytest

from repro.cache import (
    KERNEL_BACKENDS,
    CacheConfig,
    SetAssociativeCache,
    TwoLevelCache,
    make_cache,
)
from repro.errors import CacheConfigError


class TestMakeCache:
    def test_assoc1_gets_vectorised_model(self):
        """Direct-mapped geometries run on the vectorised array kernel
        like any other when it is selected; there is no separate model."""
        cache = make_cache(CacheConfig(size=64 * 1024, assoc=1, backend="array"))
        assert isinstance(cache, SetAssociativeCache)
        assert cache._kernel.name == "array"

    def test_assoc4_gets_sequential_model(self):
        cache = make_cache(CacheConfig(size=64 * 1024, assoc=4))
        assert isinstance(cache, SetAssociativeCache)

    def test_prefetch_forces_sequential_model(self):
        cache = make_cache(
            CacheConfig(size=64 * 1024, assoc=1), prefetch_next_line=True
        )
        assert isinstance(cache, SetAssociativeCache)
        assert cache.prefetch_next_line

    def test_l1_config_builds_hierarchy(self):
        cache = make_cache(
            CacheConfig(size=64 * 1024, assoc=4),
            l1_config=CacheConfig(size=8 * 1024, assoc=2),
        )
        assert isinstance(cache, TwoLevelCache)

    def test_hierarchy_plus_prefetch_rejected(self):
        with pytest.raises(CacheConfigError):
            make_cache(
                CacheConfig(size=64 * 1024, assoc=4),
                l1_config=CacheConfig(size=8 * 1024, assoc=2),
                prefetch_next_line=True,
            )


class TestSimulatorValidation:
    def test_bad_chunk_size(self):
        from repro.errors import SimulationError
        from repro.sim.engine import Simulator

        with pytest.raises(SimulationError):
            Simulator(chunk_size=0)

    def test_default_config(self):
        from repro.sim.engine import Simulator

        sim = Simulator()
        assert sim.cache_config.size == 256 * 1024


class TestBackendSelection:
    """The backend knob threads from CacheConfig / make_cache overrides
    down to the kernel actually instantiated."""

    def test_registry_contents(self):
        from repro.cache import KERNEL_BACKENDS, resolve_backend

        assert KERNEL_BACKENDS == ("reference", "array", "auto")
        assert resolve_backend(None) == "reference"
        assert resolve_backend("array") == "array"

    def test_unknown_backend_rejected(self):
        from repro.cache import resolve_backend

        with pytest.raises(CacheConfigError):
            resolve_backend("turbo")
        with pytest.raises(CacheConfigError):
            CacheConfig(size=64 * 1024, backend="turbo")

    def test_config_backend_reaches_kernel(self):
        cfg = CacheConfig(size=64 * 1024, assoc=4, backend="array")
        cache = make_cache(cfg)
        assert isinstance(cache, SetAssociativeCache)
        assert cache.backend == "array"
        assert cache._kernel.name == "array"

    def test_override_beats_config(self):
        cfg = CacheConfig(size=64 * 1024, assoc=4, backend="reference")
        cache = make_cache(cfg, backend="array")
        assert cache.backend == "array"
        assert cache._kernel.name == "array"

    def test_direct_mapped_serves_both_backends(self):
        """A 1-way cache honours ``backend`` (override and config alike)."""
        for backend in KERNEL_BACKENDS:
            for cache in (
                make_cache(CacheConfig(size=64 * 1024, assoc=1), backend=backend),
                make_cache(CacheConfig(size=64 * 1024, assoc=1, backend=backend)),
            ):
                assert isinstance(cache, SetAssociativeCache)
                assert cache.backend == backend
                assert cache._kernel.name == backend

    def test_hierarchy_backend_propagates_to_both_levels(self):
        cache = make_cache(
            CacheConfig(size=64 * 1024, assoc=4),
            l1_config=CacheConfig(size=8 * 1024, assoc=2),
            backend="array",
        )
        assert isinstance(cache, TwoLevelCache)
        assert cache.backend == "array"
        assert cache._l1.name == "array"
        assert cache._l2.name == "array"

    def test_simulator_threads_backend(self):
        from repro.sim.engine import Simulator

        sim = Simulator(CacheConfig(size=64 * 1024, assoc=4), backend="array")
        assert sim.backend == "array"

    def test_runner_config_applies_backend_to_cache(self):
        from repro.experiments.runner import RunnerConfig

        cfg = RunnerConfig(seed=1, backend="array")
        assert cfg.cache.backend == "array"
        assert RunnerConfig(seed=1).cache.backend == "reference"

    def test_cli_exposes_backend_flag(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["table1", "--backend", "array"])
        assert args.backend == "array"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--backend", "turbo"])
