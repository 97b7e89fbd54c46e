"""The benchmark's workloads and the checks on their output.

Each workload is a closed loop with one caller: the cells of one grid
run back to back in this process (``jobs=1``, no worker pool), every
cell is one simulated run and counts as one operation, and every
modelled cache starts empty, as in the paper. A *pass* is one complete
grid; the benchmark repeats passes until its time is up, building a
fresh runner (and, for ``table1``, a fresh result/stream cache
directory) for every pass so that no pass is served from an earlier
one's results.

All workloads use ``backend="auto"`` and ``compile_streams=True``, the
fast path the repository ships. The seed reaches the program only
through ``RunnerConfig(seed=...)``, ``make_workload(seed=...)`` and the
simulator seed.

Nothing here imports ``repro`` at module level: a workload's ``setup``
does, so the set-up time the benchmark reports includes the imports.
"""

from __future__ import annotations

import dataclasses
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

SWEEP_SIZES = ("64K", "256K", "1M")
SWEEP_ASSOCS = (1, 4, 16)
MECH_APPS = ["compress", "tomcatv"]
MECH_STACKS = ["vc", "vc+sb"]
MC_APPS = ["tomcatv", "mgrid", "compress", "ijpeg"]


class Cells:
    """Results of one pass, by cell label (``TaskSpec.label`` for runner
    cells), in the order the cells first ran."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.results: dict = {}
        #: Host seconds spent inside each cell's calls.
        self.seconds: dict[str, float] = {}
        #: The experiment's report (None for ``sweep``).
        self.report = None
        #: Label of the cell that raised, if one did.
        self.failed_label: str | None = None

    def run(self, label: str, fn: Callable, *args, **kwargs):
        """Run one cell and keep its result under ``label``."""
        outer = self.tracer.enter_cell(label) if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed_label = label
            raise
        finally:
            self.seconds[label] = self.seconds.get(label, 0.0) + time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.cell = outer
        # An experiment asks for a baseline several times; the runner's memo
        # returns the same object, so the first answer is the cell's.
        self.results.setdefault(label, result)
        return result

    def hook(self, runner) -> None:
        """Route ``runner``'s cells through :meth:`run` (instance level)."""
        run_task = runner.run_task
        runner.run_task = lambda spec: self.run(spec.label, run_task, spec)


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One benchmark workload (BENCHMARK.json says why each exists)."""

    name: str
    #: ``setup(seed, tiny) -> state``: everything done once per process.
    setup: Callable
    #: ``run_pass(state, cells, work_dir)``: one timed pass of the grid.
    run_pass: Callable


def _runner(seed: int, quick: bool, cache_dir=None):
    from repro.experiments.runner import ExperimentRunner, RunnerConfig

    config = RunnerConfig(seed=seed, backend="auto", compile_streams=True)
    return ExperimentRunner(config, quick=quick, jobs=1, cache_dir=cache_dir)


def _experiment_setup(seed: int, tiny: bool) -> dict:
    import repro.experiments.mechanisms  # noqa: F401
    import repro.experiments.multicore  # noqa: F401
    import repro.experiments.table1  # noqa: F401

    return {"seed": seed, "tiny": tiny}


def _table1_pass(state: dict, cells: Cells, work_dir: str) -> None:
    from repro.experiments import table1

    runner = _runner(state["seed"], state["tiny"], cache_dir=work_dir)
    cells.hook(runner)
    apps = ["compress"] if state["tiny"] else None
    cells.report = table1.run_table1(runner, apps=apps)


def _sweep_setup(seed: int, tiny: bool) -> dict:
    from repro.cache.config import CacheConfig
    from repro.workloads.compile import compiled_stream_for
    from repro.workloads.registry import workload_names

    runner = _runner(seed, tiny)
    apps = ["compress"] if tiny else workload_names()
    sizes = SWEEP_SIZES[:1] if tiny else SWEEP_SIZES
    assocs = SWEEP_ASSOCS[:2] if tiny else SWEEP_ASSOCS
    grid = []
    for app in apps:
        workload = runner.make(app)
        stream = compiled_stream_for(workload)
        for size in sizes:
            for assoc in assocs:
                config = CacheConfig(size=size, assoc=assoc, backend="auto")
                grid.append((f"{app}/{size}/{assoc}-way", workload, stream, config))
    return {"seed": seed, "grid": grid}


def _sweep_pass(state: dict, cells: Cells, work_dir: str) -> None:
    from repro.sim.engine import Simulator

    for label, workload, stream, config in state["grid"]:
        simulator = Simulator(config, seed=state["seed"])
        cells.run(label, simulator.run, workload, compiled=stream)


def _mechanisms_pass(state: dict, cells: Cells, work_dir: str) -> None:
    from repro.experiments import mechanisms

    runner = _runner(state["seed"], True)
    cells.hook(runner)
    tiny = state["tiny"]
    cells.report = mechanisms.run_mechanisms(
        runner,
        apps=MECH_APPS[:1] if tiny else MECH_APPS,
        mechanisms=MECH_STACKS[:1] if tiny else MECH_STACKS,
    )


def _multicore_pass(state: dict, cells: Cells, work_dir: str) -> None:
    from repro.experiments import multicore

    runner = _runner(state["seed"], True)
    cells.hook(runner)
    apps = MC_APPS[2:3] if state["tiny"] else MC_APPS
    cells.report = multicore.run_multicore(runner, apps=apps)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("table1", _experiment_setup, _table1_pass),
        Workload("sweep", _sweep_setup, _sweep_pass),
        Workload("mechanisms", _experiment_setup, _mechanisms_pass),
        Workload("multicore", _experiment_setup, _multicore_pass),
    )
}


# ------------------------------------------------------------- correctness

def digest(result) -> str:
    """Digest of one cell's simulated output: run statistics, actual and
    measured profiles, component ledgers, contention, and each core's
    digest for multi-core cells. Host timings are not part of it."""
    from repro.experiments.cache_store import stable_hash

    return stable_hash(_digested(result))[:16]


def _digested(result) -> dict:
    return {
        "stats": result.stats,
        "actual": _profile(result.actual),
        "measured": _profile(result.measured),
        "components": result.component_stats,
        "contention": result.contention,
        "cores": [digest(core) for core in result.cores or ()],
    }


def _profile(profile) -> dict | None:
    # ObjectShare.obj carries a process-wide allocation counter (uid), so
    # a share is digested by name, count and share only.
    if profile is None:
        return None
    return {
        "source": profile.source,
        "total_misses": profile.total_misses,
        "shares": [(s.name, s.count, s.share) for s in profile.shares],
        "meta": profile.meta,
    }


def _base_of(result, results: dict):
    """The undecorated cell of the same app and geometry, or None."""
    plain = dataclasses.replace(result.cache_config, mechanisms=())
    for other in results.values():
        if other.workload_name == result.workload_name and other.cache_config == plain:
            return other
    return None


def _cell_problem(result, results: dict) -> str | None:
    for unit in result.cores or [result]:
        if unit.actual is not None and unit.actual.total_misses != unit.stats.app_misses:
            return (
                f"{unit.workload_name}: ground-truth total {unit.actual.total_misses} "
                f"!= app_misses {unit.stats.app_misses}"
            )
    if result.cores:
        port_misses = 0
        for core in result.cores:
            profile = core.contention
            port = core.component_stats[-1][1].misses
            port_misses += port
            if profile.ledger.classified_misses != port:
                return (
                    f"core {core.core_id}: self + contention "
                    f"{profile.ledger.classified_misses} != shared-level misses {port}"
                )
            self_total = sum(profile.self_by_object.values()) + profile.unattributed_self
            if self_total != profile.self_misses:
                return f"core {core.core_id}: per-object self misses do not sum"
            if (
                sum(profile.contention_by_object.values()) + profile.unattributed_contention
                != profile.contention_misses
            ):
                return f"core {core.core_id}: per-object contention misses do not sum"
        if result.cache_stats.misses != port_misses:
            return f"shared LLC misses {result.cache_stats.misses} != sum of ports {port_misses}"
    if result.cache_config.mechanisms:
        base = _base_of(result, results)
        if base is None:
            return "decorated cell has no undecorated base cell in the grid"
        if result.stats.app_misses > base.stats.app_misses:
            return (
                f"decorated misses {result.stats.app_misses} > base misses "
                f"{base.stats.app_misses}"
            )
    return None


def problems(results: dict) -> dict[str, str]:
    """Invariant violations by cell label (empty when every cell holds)."""
    found = {}
    for label, result in results.items():
        problem = _cell_problem(result, results)
        if problem is not None:
            found[label] = problem
    return found


def expected_digests(seed: int, workload: str) -> dict | None:
    """Committed per-cell digests for ``seed``, or None if there are none
    (only seed 1234's are committed)."""
    path = EXPECTED_DIR / f"seed-{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["workloads"].get(workload)


# ------------------------------------------------------------------ counts

def pass_counts(cells: Cells) -> dict:
    """Deterministic per-pass totals of simulated events."""
    results = cells.results.values()
    refs = sum(r.stats.app_refs for r in results)
    misses = sum(r.stats.app_misses for r in results)
    rescued = 0
    for r in results:
        if r.cache_config.mechanisms:
            base = _base_of(r, cells.results)
            rescued += base.stats.app_misses - r.stats.app_misses if base else 0
    counts = {
        "refs": refs,
        "cells": len(cells.results),
        "cache.miss_ratio": misses / refs if refs else 0.0,
        "cache.mechanism_rescued": rescued,
        "cache.contention_misses": sum(
            r.contention.contention_misses for r in results if r.contention is not None
        ),
        "core.interrupts": sum(
            len(unit.stats.interrupts) for r in results for unit in r.cores or [r]
        ),
        "core.instr_refs": sum(r.stats.instr_refs for r in results),
    }
    counts.update(table1_accuracy(cells.report))
    return counts


def table1_accuracy(report) -> dict:
    """Table 1 accuracy in percent: the mean over apps of the sampling and
    search error against the simulated actual profile, and of the model's
    largest error against the paper's published actual percentages.
    All zero for the other experiments."""
    from repro.experiments.records import PAPER_TABLE1

    out = {
        "accuracy.sampling_err_pct": 0.0,
        "accuracy.search_err_pct": 0.0,
        "accuracy.paper_err_pct": 0.0,
    }
    if report is None or report.experiment != "table1":
        return out
    values = report.values
    out["accuracy.sampling_err_pct"] = 100 * statistics.fmean(
        v["sample_max_error"] for v in values.values()
    )
    out["accuracy.search_err_pct"] = 100 * statistics.fmean(
        v["search_max_error"] for v in values.values()
    )
    paper = [
        max(
            abs(100 * values[app]["actual"].get(name, 0.0) - row[1])
            for name, row in PAPER_TABLE1[app].items()
        )
        for app in values
        if app in PAPER_TABLE1
    ]
    out["accuracy.paper_err_pct"] = statistics.fmean(paper) if paper else 0.0
    return out
