"""Experiment E11 (extension) — cache-geometry robustness sweep.

The paper evaluates one cache (2 MB set-associative). A tool's users
will run it against whatever geometry their machine has, so this sweep
re-runs the profiling question across sizes and associativities and
checks the answer is stable: the top objects and their approximate
shares should survive geometry changes (absolute miss counts will not,
and need not).
"""

from __future__ import annotations

import dataclasses

from repro.core.sampling import PeriodSchedule, SamplingProfiler
from repro.experiments.records import ExperimentReport
from repro.experiments.runner import ExperimentRunner, sampling_period_of
from repro.util.format import Table, render_table
from repro.util.units import fmt_bytes, fmt_pct


def run_geometry_sweep(
    runner: ExperimentRunner,
    app: str = "su2cor",
    sizes: list[int] | None = None,
    assocs: list[int] | None = None,
) -> ExperimentReport:
    sizes = sizes or [64 * 1024, 256 * 1024, 1 << 20]
    assocs = assocs or [1, 4, 16]
    table = Table(
        ["geometry", "misses", "top object", "top actual %", "top sampled %"],
        title=f"Extension: geometry robustness sweep ({app})",
    )
    values: dict = {}
    reference_top: str | None = None
    for size in sizes:
        for assoc in assocs:
            cfg = dataclasses.replace(runner.config.cache, size=size, assoc=assoc)
            sim = dataclasses.replace(runner.sim_spec, cache=cfg).build(runner.config.seed)
            base = sim.run(runner.make(app))
            period = sampling_period_of(base)
            sampled = sim.run(
                runner.make(app),
                tool=SamplingProfiler(
                    period=period,
                    schedule=PeriodSchedule.PRIME,
                    seed=runner.config.seed,
                ),
            )
            top = base.actual.names()[0]
            reference_top = reference_top or top
            key = f"{fmt_bytes(size)}/{assoc}way"
            table.add_row(
                [
                    key,
                    base.stats.app_misses,
                    top,
                    fmt_pct(base.actual.share_of(top)),
                    fmt_pct(sampled.measured.share_of(top)),
                ]
            )
            values[key] = {
                "misses": base.stats.app_misses,
                "top": top,
                "top_share": base.actual.share_of(top),
                "top_sampled": sampled.measured.share_of(top),
            }
    stable = all(v["top"] == reference_top for v in values.values())
    values["stable_top"] = stable
    values["reference_top"] = reference_top
    notes = [
        f"top object {'stable' if stable else 'UNSTABLE'} across "
        f"{len(sizes)}x{len(assocs)} geometries "
        f"(reference: {reference_top})",
        "expected: the dominant object and its sampled share survive any "
        "reasonable geometry; only absolute miss counts move",
    ]
    return ExperimentReport(
        experiment="ext-sweep", table=render_table(table), values=values, notes=notes
    )
