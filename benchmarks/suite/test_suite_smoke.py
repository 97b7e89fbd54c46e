"""Each workload's code path at tiny size emits every metric BENCHMARK.json names.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite``.
"""

import pytest

import grid
import run

SPEC = run.benchmark_spec()


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(grid.WORKLOADS)


@pytest.mark.parametrize("workload", list(grid.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(workload):
    result = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True, probes=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(grid.WORKLOADS))
def test_traced_run_emits_per_layer_metrics_and_unwraps(workload):
    from repro.sim.session import SimulationSession

    run_before = vars(SimulationSession)["run"]
    result = run.measure(workload, seed=3, seconds=0, trace=True, tiny=True)
    assert vars(SimulationSession)["run"] is run_before
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == _names("per_layer")
    assert metrics["cache.access_calls"]["value"] > 0
    # Layer self times and the remainder add up to the traced wall time.
    parts = sum(metrics[name]["value"] for name in run.SELF_TIME_SPANS)
    assert parts + metrics["other_s"]["value"] == pytest.approx(metrics["trace.wall_s"]["value"])


def test_digest_mismatch_counts_as_failure():
    expected = {"compress/64K/1-way": "0" * 16}
    result = run.measure("sweep", seed=3, seconds=0, trace=False, expected=expected,
                         tiny=True, probes=1)
    assert not result["correct"]
    # The mismatching cell fails; the cell missing from ``expected`` too.
    assert result["failed"] == result["attempted"] == 2
