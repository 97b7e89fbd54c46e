"""Tests for the extension experiment drivers (quick-mode shapes)."""

from unittest import mock

import pytest

from repro.experiments.ablations import run_policy_ablation
from repro.experiments.extensions import (
    run_continuation,
    run_hierarchy,
    run_prefetch_ablation,
    run_skid_ablation,
)
from repro.experiments.mrc import run_mrc
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.sweep import run_geometry_sweep
from repro.sim.engine import Simulator


class TestSkidDriver:
    def test_top_object_survives_skid(self, quick_runner):
        report = run_skid_ablation(quick_runner, skids=(0, 4))
        assert report.values["skid_0"]["top"] == "U"
        assert report.values["skid_4"]["top"] == "U"
        assert report.values["skid_4"]["max_error"] < 0.05


class TestContinuationDriver:
    def test_more_objects_with_continuation(self, quick_runner):
        report = run_continuation(quick_runner, rounds=2)
        plain = report.values["single batch (paper)"]
        cont = report.values["+2 rounds"]
        assert len(cont["found"]) > len(plain["found"])
        assert cont["coverage"] >= plain["coverage"]


class TestHierarchyDriver:
    def test_l2_shares_track_single_level(self, quick_runner):
        report = run_hierarchy(quick_runner)
        single = report.values["single_actual"]
        l2 = report.values["l2_actual"]
        for name in ("U", "R", "V"):
            assert l2[name] == pytest.approx(single[name], abs=0.05)
        # L1 filtering must not create misses from nowhere.
        assert report.values["l2_misses"] <= report.values["single_misses"] * 1.05

    def test_sampling_on_l2(self, quick_runner):
        report = run_hierarchy(quick_runner)
        sampled = report.values["l2_sampled"]
        assert max(sampled, key=sampled.get) in ("U", "R")


class TestPrefetchDriver:
    def test_prefetch_cuts_misses_keeps_ranks(self, quick_runner):
        report = run_prefetch_ablation(quick_runner)
        assert report.values["misses_with"] < report.values["misses_without"] * 0.8
        plain = report.values["plain_actual"]
        pf = report.values["prefetch_actual"]
        top = max(plain, key=plain.get)
        assert pf[top] == pytest.approx(plain[top], abs=0.05)


class TestMrcDriver:
    def test_monotone_and_ordered(self, quick_runner):
        report = run_mrc(quick_runner, apps=["mgrid", "ijpeg"], sample_refs=150_000)
        sizes = report.values["sizes"]
        for app in ("mgrid", "ijpeg"):
            curve = [report.values[app][s] for s in sizes]
            assert curve == sorted(curve, reverse=True)
        # ijpeg's miss ratio sits far below mgrid's at every size.
        for s in sizes:
            assert report.values["ijpeg"][s] < report.values["mgrid"][s]


class TestSweepDriver:
    def test_top_object_stable(self, quick_runner):
        from repro.experiments.sweep import run_geometry_sweep

        report = run_geometry_sweep(
            quick_runner, sizes=[64 * 1024, 256 * 1024], assocs=[1, 4]
        )
        assert report.values["stable_top"]
        assert report.values["reference_top"] == "U"
        for _key, vals in report.values.items():
            if isinstance(vals, dict):
                assert vals["top_sampled"] == pytest.approx(
                    vals["top_share"], abs=0.05
                )


class TestDriversKeepRunnerSettings:
    """A driver that builds its own simulators varies only its own field:
    the runner's mechanism stack, backend and compiled-stream setting
    reach every cell it runs."""

    @pytest.mark.parametrize("driver", ["policy", "sweep"])
    def test_every_simulator_carries_the_runner_settings(self, driver):
        runner = ExperimentRunner(
            RunnerConfig(
                seed=99,
                mechanisms="vc",
                backend="auto",
                compile_streams=True,
                workload_kwargs={"input_lines": 2000},
            )
        )
        with mock.patch.object(
            Simulator, "start_session", autospec=True, side_effect=Simulator.start_session
        ) as spy:
            if driver == "policy":
                run_policy_ablation(runner, app="compress")
            else:
                run_geometry_sweep(runner, app="compress", sizes=[64 * 1024], assocs=[4])
        sims = [call.args[0] for call in spy.call_args_list]
        assert sims
        for sim in sims:
            assert sim.cache_config.mechanisms == runner.config.cache.mechanisms
            assert sim.cache_config.backend == "auto"
            assert sim.compile_streams
