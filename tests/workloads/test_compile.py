"""Stream compilation: fingerprints, caching, freezing and safety gates."""

import inspect
import pickle

import numpy as np
import pytest

from repro.experiments.cache_store import ResultCache
from repro.workloads.base import Workload
from repro.workloads.compile import (
    CompiledStream,
    StreamCompileError,
    compile_workload,
    compiled_stream_for,
    stream_fingerprint,
    workload_params,
)
from repro.workloads import compile as compile_module
from repro.workloads.registry import EXTRA_WORKLOADS, SPEC_WORKLOADS, make_workload
from repro.workloads.synthetic import TreeChaser

#: Registry workloads that may be compiled, and the constructor
#: arguments they cannot default.
COMPILABLE = [
    name
    for name, cls in {**SPEC_WORKLOADS, **EXTRA_WORKLOADS}.items()
    if cls.compiled_stream_safe
]
REQUIRED_KWARGS = {"synthetic-streams": {"spec": {"a": (64 * 1024, 1)}}}


def _tomcatv(**overrides):
    kwargs = {"n_steps": 2, "rows_per_step": 4, "seed": 5}
    kwargs.update(overrides)
    return make_workload("tomcatv", **kwargs)


class TestFingerprint:
    def test_stable_for_equal_construction(self):
        assert stream_fingerprint(_tomcatv()) == stream_fingerprint(_tomcatv())

    @pytest.mark.parametrize(
        "override",
        [{"n_steps": 3}, {"rows_per_step": 8}, {"seed": 6}, {"scale": 2.0}],
    )
    def test_any_parameter_change_changes_it(self, override):
        assert stream_fingerprint(_tomcatv()) != stream_fingerprint(
            _tomcatv(**override)
        )

    def test_params_read_back_every_constructor_field(self):
        params = workload_params(_tomcatv())
        # Base-class params included; values round-tripped off the instance.
        assert params["n_steps"] == 2
        assert params["rows_per_step"] == 4
        assert params["seed"] == 5
        assert params["scale"] == 1.0

    def test_param_not_stored_as_attribute_is_an_error(self):
        class Sneaky(Workload):
            name = "sneaky"

            def __init__(self, knob: int = 3) -> None:
                super().__init__()
                # Deliberately NOT storing `knob` (breaks the parameter
                # round-trip convention).
                del knob

            def _declare(self):
                pass

            def _generate(self):
                return iter(())

        with pytest.raises(StreamCompileError, match="knob"):
            workload_params(Sneaky())

    def test_varargs_constructor_is_an_error(self):
        class TakesVarargs(Workload):
            name = "varargs"

            def __init__(self, *arrays, **extra) -> None:
                super().__init__()
                self.arrays = arrays
                self.extra = extra

            def _declare(self):
                pass

            def _generate(self):
                return iter(())

        with pytest.raises(StreamCompileError, match=r"\*args"):
            workload_params(TakesVarargs())

    @pytest.mark.parametrize("name", COMPILABLE)
    def test_registry_workloads_round_trip_every_parameter(self, name):
        workload = make_workload(name, **REQUIRED_KWARGS.get(name, {}))
        signature = inspect.signature(type(workload).__init__)
        assert set(workload_params(workload)) == set(signature.parameters) - {"self"}

    def test_format_and_class_change_it(self, monkeypatch):
        class Renamed(SPEC_WORKLOADS["tomcatv"]):
            pass

        before = stream_fingerprint(_tomcatv())
        assert stream_fingerprint(Renamed(n_steps=2, rows_per_step=4, seed=5)) != before
        monkeypatch.setattr(
            compile_module,
            "STREAM_FORMAT_VERSION",
            compile_module.STREAM_FORMAT_VERSION + 1,
        )
        assert stream_fingerprint(_tomcatv()) != before


class TestCompile:
    def test_blocks_match_the_generator_exactly(self):
        workload = _tomcatv()
        stream = compile_workload(workload)
        fresh = _tomcatv()
        generated = list(fresh.blocks())
        assert len(stream.blocks) == len(generated)
        assert len(stream) == sum(len(b) for b in generated)
        for frozen, live in zip(stream.blocks, generated):
            assert np.array_equal(frozen.addrs, live.addrs)
            assert frozen.cycles_per_ref == live.cycles_per_ref
            assert frozen.extra_cycles == live.extra_cycles

    def test_arrays_are_frozen(self):
        stream = compile_workload(_tomcatv())
        for block in stream.blocks:
            assert not block.addrs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block.addrs[0] = 0

    def test_workload_is_reset_after_compilation(self):
        workload = _tomcatv()
        compile_workload(workload)
        assert not workload.consumed

    def test_unsafe_class_is_refused(self):
        chaser = TreeChaser(n_nodes=50, n_steps=2, refs_per_step=100, seed=5)
        with pytest.raises(StreamCompileError, match="compiled_stream_safe"):
            compile_workload(chaser)

    def test_dynamic_churn_guard_catches_mid_stream_allocation(self):
        class Churner(Workload):
            name = "churner"

            def _declare(self):
                pass

            def _generate(self):
                obj = self.heap.malloc(4096, name="mid-stream")
                yield self.block(
                    np.arange(obj.base, obj.base + 512, 8, dtype=np.uint64)
                )

        with pytest.raises(StreamCompileError, match="heap alloc"):
            compile_workload(Churner())


class TestStreamCache:
    def test_round_trip_through_the_on_disk_cache(self, tmp_path):
        first = compiled_stream_for(_tomcatv(), tmp_path)
        assert any((tmp_path / "streams").iterdir())
        second = compiled_stream_for(_tomcatv(), tmp_path)
        assert second.fingerprint == first.fingerprint
        assert len(second.blocks) == len(first.blocks)
        for a, b in zip(first.blocks, second.blocks):
            assert np.array_equal(a.addrs, b.addrs)

    def test_cache_hit_arrays_are_frozen(self, tmp_path):
        compiled_stream_for(_tomcatv(), tmp_path)
        hit = compiled_stream_for(_tomcatv(), tmp_path)
        for block in hit.blocks:
            assert not block.addrs.flags.writeable

    def test_different_params_get_different_entries(self, tmp_path):
        a = compiled_stream_for(_tomcatv(), tmp_path)
        b = compiled_stream_for(_tomcatv(n_steps=3), tmp_path)
        assert a.fingerprint != b.fingerprint

    @staticmethod
    def _assert_same_stream(got, want):
        assert got.fingerprint == want.fingerprint
        assert got.n_refs == want.n_refs
        assert len(got.blocks) == len(want.blocks)
        for a, b in zip(got.blocks, want.blocks):
            assert np.array_equal(a.addrs, b.addrs)

    def test_truncated_entry_is_recompiled_and_replaced(self, tmp_path):
        want = compiled_stream_for(_tomcatv(), tmp_path)
        entry = ResultCache(tmp_path / "streams").path_for(want.fingerprint)
        whole = entry.read_bytes()
        entry.write_bytes(whole[: len(whole) // 2])
        self._assert_same_stream(compiled_stream_for(_tomcatv(), tmp_path), want)
        self._assert_same_stream(pickle.loads(entry.read_bytes()), want)

    def test_entry_of_another_fingerprint_is_recompiled_and_replaced(self, tmp_path):
        want = compiled_stream_for(_tomcatv(), None)
        other = compiled_stream_for(_tomcatv(n_steps=3), None)
        store = ResultCache(tmp_path / "streams")
        store.put(want.fingerprint, other)
        self._assert_same_stream(compiled_stream_for(_tomcatv(), tmp_path), want)
        self._assert_same_stream(store.get(want.fingerprint), want)

    def test_none_cache_dir_compiles_without_caching(self):
        stream = compiled_stream_for(_tomcatv(), None)
        assert isinstance(stream, CompiledStream)
