"""Parallel-vs-serial equivalence and cache-hit behaviour.

The acceptance bar for the parallel runner: fanning a grid over worker
processes must produce *bit-identical* results to serial execution, and
re-running the same grid against a persistent cache directory must be
served from disk.
"""

import dataclasses
import multiprocessing
import os
import re
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cache import CacheConfig, make_cache
from repro.errors import SimulationError
from repro.experiments.cache_store import Manifest, ResultCache
from repro.experiments.parallel import (
    ParallelRunner,
    SimSpec,
    TaskSpec,
    ToolSpec,
    derive_task_seed,
    expand_grid,
)
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.util.rng import make_rng
from repro.workloads.registry import EXTRA_WORKLOADS

SIM = SimSpec(cache=CacheConfig(size=32 * 1024, assoc=2))

STREAMS = {"a": (64 * 1024, 50), "b": (64 * 1024, 30), "c": (64 * 1024, 20)}


def grid():
    """A small but non-trivial grid: 2 workload variants x 3 tools."""
    workloads = [
        ("synthetic-streams", {"spec": STREAMS, "rounds": 6,
                               "lines_per_round": 1500, "interleaved": True}),
        ("synthetic-streams", {"spec": STREAMS, "rounds": 6,
                               "lines_per_round": 1500, "interleaved": False}),
    ]
    tools = [
        None,
        ToolSpec("sampling", {"period": 97, "schedule": "prime", "seed": 3}),
        ToolSpec("search", {"n": 4, "interval_cycles": 200_000}),
    ]
    return expand_grid(workloads, tools, sim=SIM, seed=7)


def profiles_equal(a, b):
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    return a.as_dict() == b.as_dict()


def results_identical(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.stats == y.stats
        assert profiles_equal(x.actual, y.actual)
        assert profiles_equal(x.measured, y.measured)


class TestDeterminism:
    def test_derive_task_seed_is_stable(self):
        s = derive_task_seed("abc123", "tomcatv", 4)
        assert s == derive_task_seed("abc123", "tomcatv", 4)
        assert 0 <= s < 2**31 - 1
        # Any input change yields a different seed.
        assert s != derive_task_seed("abc124", "tomcatv", 4)
        assert s != derive_task_seed("abc123", "mgrid", 4)
        assert s != derive_task_seed("abc123", "tomcatv", 5)

    def test_expand_grid_deterministic(self):
        a, b = grid(), grid()
        assert [s.seed for s in a] == [s.seed for s in b]
        assert [s.key() for s in a] == [s.key() for s in b]

    def test_expand_grid_derives_distinct_seeds(self):
        workloads = [("synthetic-streams", {"spec": STREAMS})]
        tools = [None, ToolSpec("sampling", {"period": 64})]
        specs = expand_grid(workloads, tools, sim=SIM, replicas=2)
        seeds = [s.seed for s in specs]
        assert len(set(seeds)) == len(seeds)


class TestParallelEqualsSerial:
    def test_jobs4_matches_jobs1(self):
        serial = ParallelRunner(jobs=1).run(grid())
        parallel = ParallelRunner(jobs=4).run(grid())
        results_identical(serial, parallel)

    def test_second_invocation_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = ParallelRunner(jobs=2, cache=cache)
        warm = first.run(grid())
        assert first.manifest.misses == len(grid())

        second = ParallelRunner(jobs=2, cache=cache)
        served = second.run(grid())
        counts = second.manifest.counts()
        assert counts["miss"] == 0
        assert counts["hit"] == len(grid())
        results_identical(warm, served)

    def test_duplicate_cells_simulated_once(self):
        specs = grid()
        doubled = specs + specs
        runner = ParallelRunner(jobs=1)
        results = runner.run(doubled)
        assert runner.manifest.misses == len(specs)
        results_identical(results[: len(specs)], results[len(specs):])

    def test_manifest_mirrors_to_jsonl(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(
            jobs=1, cache=cache, manifest=Manifest(path=cache.manifest_path)
        )
        runner.run(grid()[:2])
        rows = Manifest.load(cache.manifest_path)
        assert len(rows) == 2
        assert all(set(r) >= {"task", "workload", "seed", "key", "cached",
                              "wall_s"} for r in rows)


def _dying_workload(**kwargs):
    """A workload whose construction ends the worker process at once."""
    os._exit(3)


class TestPoolFailures:
    """A cell that fails in a worker is named, with its key, and only
    after the cells that finished are in the result cache."""

    def _run(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SimulationError) as info:
            ParallelRunner(jobs=2, cache=cache).run(specs)
        return cache, info.value

    def test_raising_cell_is_named_after_the_others_are_cached(self, tmp_path):
        bad = TaskSpec(
            "synthetic-streams",
            {"spec": STREAMS, "no_such_argument": 1},
            seed=7,
            sim=SIM,
            label="bad-kwargs",
        )
        good = grid()[:3]
        cache, err = self._run([good[0], bad, *good[1:]], tmp_path)
        message = str(err)
        assert f"'bad-kwargs' (key {bad.key()}) raised TypeError" in message
        assert message.startswith("1 of 4 cells failed")
        assert isinstance(err.__cause__, TypeError)
        assert cache.get(bad.key()) is None
        for spec in good:
            assert spec.key() not in message
            assert cache.get(spec.key()) is not None

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the test's dying workload only when forked",
    )
    def test_dead_worker_names_every_unfinished_cell(self, tmp_path, monkeypatch):
        monkeypatch.setitem(EXTRA_WORKLOADS, "dying", _dying_workload)
        dying = TaskSpec("dying", seed=7, sim=SIM, label="dies")
        specs = [*grid()[:3], dying]
        cache, err = self._run(specs, tmp_path)
        message = str(err)
        assert isinstance(err.__cause__, BrokenProcessPool)
        assert f"'dies' (key {dying.key()}) was unfinished" in message
        # Every other cell either finished (and is cached) or is named.
        for spec in specs[:3]:
            named = f"(key {spec.key()}) was unfinished" in message
            assert named != (cache.get(spec.key()) is not None), spec.label


class TestInlineFailures:
    """``jobs=1`` runs the cells in this process and reports a failed
    one exactly as the pool does."""

    BAD = TaskSpec(
        "synthetic-streams",
        {"spec": STREAMS, "no_such_argument": 1},
        seed=7,
        sim=SIM,
        label="bad-kwargs",
    )

    def _run(self, specs, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SimulationError) as info:
            ParallelRunner(jobs=1, cache=cache).run(specs)
        assert isinstance(info.value.__cause__, TypeError)
        return cache, str(info.value)

    def test_lone_cell_is_named(self, tmp_path):
        _, message = self._run([self.BAD], tmp_path)
        assert message.startswith(
            f"1 of 1 cells failed: 'bad-kwargs' (key {self.BAD.key()}) "
            "raised TypeError: "
        )
        assert "no_such_argument" in message

    def test_good_cell_after_the_failure_is_cached(self, tmp_path):
        good = grid()[0]
        cache, message = self._run([self.BAD, good], tmp_path)
        assert message.startswith("1 of 2 cells failed: 'bad-kwargs'")
        assert good.key() not in message
        assert cache.get(good.key()) is not None
        assert cache.get(self.BAD.key()) is None


def _guard_message(live: object) -> str:
    """How the live-state guard names the class of ``live``."""
    cls = type(live)
    return f"a grid cell's inputs hold a live {cls.__module__}.{cls.__qualname__}; "


class TestLiveStateGuard:
    """``execute_task`` refuses a cell whose inputs hold a live RNG or
    cache, on every path a cell runs, before the cell runs; the runners
    name the refused cell like any failed one and cache nothing for it.
    Such a cell's key embeds the object's address (``canonical`` falls
    back to ``repr``), so two identical specs would key apart."""

    def _cell(self, label, **fields):
        kwargs = {"spec": STREAMS, "rounds": 2, "lines_per_round": 500}
        cell = TaskSpec("synthetic-streams", kwargs, seed=7, sim=SIM)
        return dataclasses.replace(cell, label=label, **fields)

    def _refused(self, tmp_path, specs, live, **runner):
        """Run ``specs``; return the cache and the one refused cell's
        message, checked to chain to the guard's error."""
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(SimulationError) as info:
            ParallelRunner(cache=cache, **runner).run(specs)
        cause = info.value.__cause__
        assert isinstance(cause, SimulationError)
        assert str(cause).startswith(_guard_message(live))
        return cache, str(info.value)

    def test_generator_tool_seed_is_refused_in_a_pool_worker(self, tmp_path):
        rng = make_rng(7)
        live = self._cell("live-seed", tool=ToolSpec(
            "sampling", {"period": 50, "schedule": "random", "seed": rng}))
        good = self._cell("good")
        cache, message = self._refused(tmp_path, [good, live], rng, jobs=2)
        assert message.startswith(
            f"1 of 2 cells failed: 'live-seed' (key {live.key()}) "
            "raised SimulationError: "
        )
        assert cache.get(live.key()) is None
        assert cache.get(good.key()) is not None

    def test_generator_in_workload_kwargs_is_refused_inline(self, tmp_path):
        rng = make_rng(7)
        live = self._cell("live-kwargs")
        live.workload_kwargs["spec"] = {"a": (64 * 1024, rng)}
        cache, message = self._refused(tmp_path, [live], rng, jobs=1)
        assert message.startswith(f"1 of 1 cells failed: 'live-kwargs' (key {live.key()})")
        assert len(cache) == 0

    def test_generator_as_the_checkpoint_policy_is_refused(self, tmp_path):
        rng = make_rng(7)
        cell = self._cell("cell")
        cache, message = self._refused(tmp_path, [cell], rng, jobs=1, checkpoints=rng)
        assert message.startswith(f"1 of 1 cells failed: 'cell' (key {cell.key()})")
        assert len(cache) == 0

    def test_cache_model_in_a_spec_field_is_refused_by_run_task(self, tmp_path):
        model = make_cache(CacheConfig(size=32 * 1024, assoc=2))
        live = self._cell("live-cache", sim=dataclasses.replace(SIM, cache=model))
        runner = ExperimentRunner(
            RunnerConfig(seed=42), quick=True, jobs=1, cache_dir=tmp_path / "results"
        )
        with pytest.raises(SimulationError, match=re.escape(_guard_message(model))):
            runner.run_task(live)
        assert len(runner.result_cache) == 0
        assert runner.manifest.records == []


class TestRunnerIntegration:
    """ExperimentRunner wired through the cache: warm + serial drivers."""

    @pytest.fixture
    def cache_dir(self, tmp_path):
        return tmp_path / "results"

    def test_warm_then_rerun_hits_cache(self, cache_dir):
        r1 = ExperimentRunner(
            RunnerConfig(seed=42), quick=True, jobs=1, cache_dir=cache_dir
        )
        r1.warm(apps=["compress"], experiments=["table1"])
        assert r1.manifest.misses > 0
        # The JSONL mirror must exist even though the cache dir started
        # out empty (an empty ResultCache is falsy — len() == 0 — which
        # once disabled the mirror via a truthiness check).
        assert r1.result_cache.manifest_path.exists()
        assert len(Manifest.load(r1.result_cache.manifest_path)) == len(
            r1.manifest.records
        )

        r2 = ExperimentRunner(
            RunnerConfig(seed=42), quick=True, jobs=1, cache_dir=cache_dir
        )
        r2.warm(apps=["compress"], experiments=["table1"])
        counts = r2.manifest.counts()
        assert counts["miss"] == 0
        assert counts["hit"] >= 1
        # ISSUE acceptance: >=90% of the repeat grid served from cache.
        total = counts["hit"] + counts["miss"]
        assert counts["hit"] / total >= 0.9

    def test_warmed_results_match_unwarmed(self, cache_dir):
        cold = ExperimentRunner(RunnerConfig(seed=42), quick=True)
        warm = ExperimentRunner(
            RunnerConfig(seed=42), quick=True, jobs=1, cache_dir=cache_dir
        )
        warm.warm(apps=["compress"], experiments=["table1"])

        a = cold.with_sampling("compress")
        b = warm.with_sampling("compress")
        assert a.stats == b.stats
        assert profiles_equal(a.measured, b.measured)
        base_a = cold.baseline("compress")
        base_b = warm.baseline("compress")
        assert base_a.stats == base_b.stats
        assert profiles_equal(base_a.actual, base_b.actual)


class TestSpeedupGuard:
    @pytest.mark.skipif(
        (__import__("os").cpu_count() or 1) < 4,
        reason="needs >=4 cores to demonstrate parallel speedup",
    )
    def test_parallel_speedup_on_grid(self):
        # ISSUE acceptance: >=1.8x on an >=8-cell grid with 4 workers.
        import time

        specs = grid() + expand_grid(
            [("synthetic-streams", {"spec": STREAMS, "rounds": 8,
                                    "lines_per_round": 2000})],
            [None, ToolSpec("sampling", {"period": 101})],
            sim=SIM,
            seed=11,
        )
        assert len(specs) >= 8
        t0 = time.perf_counter()
        serial = ParallelRunner(jobs=1).run(specs)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = ParallelRunner(jobs=4).run(specs)
        t_parallel = time.perf_counter() - t0
        results_identical(serial, parallel)
        assert t_serial / t_parallel >= 1.8
