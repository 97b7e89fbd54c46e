"""Experiment E8 — ablations of the design choices the paper calls out.

* **Split alignment** (section 2.2): splitting regions at raw midpoints
  lets objects span region boundaries; an array straddling a cut may not
  attract the search. Compared on a layout engineered so the hottest
  array straddles the midpoint.
* **Phase heuristic** (section 3.5): disabling zero-miss retention makes
  the search on applu (strong phases) drop hot regions that happened to
  be silent for one interval.
* **Counter multiplexing** (section 2.2/3.4): emulating the n counters by
  time-sharing one conditional counter adds extrapolation error.
* **Replacement policy**: the techniques' rankings should be robust to
  LRU/FIFO/random replacement (the paper does not pin a policy).
"""

from __future__ import annotations

import dataclasses

from repro.cache import ReplacementPolicy
from repro.core.sampling import PeriodSchedule, SamplingProfiler
from repro.core.search import NWaySearch
from repro.experiments.records import ExperimentReport
from repro.experiments.runner import ExperimentRunner, sampling_period_of, search_interval_of
from repro.util.format import Table, render_table
from repro.util.units import fmt_pct
from repro.workloads.synthetic import SyntheticStreams


def _straddle_spec() -> dict[str, tuple[int, float]]:
    """A layout whose hottest array sits mid-address-space, so naive
    midpoint splits cut straight through it."""
    return {
        "left_a": (512 * 1024, 14),
        "left_b": (512 * 1024, 12),
        "HOT": (1024 * 1024, 44),
        "right_a": (512 * 1024, 16),
        "right_b": (512 * 1024, 14),
    }


def run_alignment_ablation(runner: ExperimentRunner) -> ExperimentReport:
    def fresh():
        return SyntheticStreams(
            _straddle_spec(), rounds=60, interleaved=True, seed=runner.config.seed
        )

    base = runner.simulator.run(fresh())
    interval = search_interval_of(base)
    aligned = runner.simulator.run(
        fresh(), tool=NWaySearch(n=4, interval_cycles=interval, align_splits=True)
    )
    naive = runner.simulator.run(
        fresh(), tool=NWaySearch(n=4, interval_cycles=interval, align_splits=False)
    )
    table = Table(
        ["variant", "HOT rank", "HOT est %", "objects found"],
        title="Ablation: object-aligned vs naive midpoint splits",
    )
    rows = (("aligned", aligned), ("naive midpoint", naive))
    for label, run in rows:
        table.add_row(
            [
                label,
                run.measured.rank_of("HOT") or "-",
                fmt_pct(run.measured.share_of("HOT")),
                len(run.measured),
            ]
        )
    values = {
        "actual_hot": base.actual.share_of("HOT"),
        "aligned": {
            "hot_rank": aligned.measured.rank_of("HOT"),
            "hot_share": aligned.measured.share_of("HOT"),
        },
        "naive": {
            "hot_rank": naive.measured.rank_of("HOT"),
            "hot_share": naive.measured.share_of("HOT"),
        },
    }
    notes = [
        "expected: aligned split ranks HOT first with a share near "
        f"{fmt_pct(base.actual.share_of('HOT'))}%; the naive split either "
        "misses HOT or underestimates it (each half sees only part of it)",
    ]
    return ExperimentReport(
        experiment="ablation-alignment",
        table=render_table(table),
        values=values,
        notes=notes,
    )


def run_phase_heuristic_ablation(runner: ExperimentRunner) -> ExperimentReport:
    app = "applu"
    base = runner.baseline(app)
    # Short intervals relative to applu's phases stress the heuristic.
    interval = max(10_000, base.stats.app_cycles // 90)
    with_h = runner.with_search(app, n=10, interval_cycles=interval)
    without_h = runner.with_search(
        app, n=10, interval_cycles=interval, zero_keep_max=0, interval_growth=1.0
    )
    actual = base.actual
    table = Table(
        ["variant", "found", "a rank", "rsd rank", "top-5 hit rate"],
        title="Ablation: phase heuristic on applu",
    )
    values: dict = {"actual": actual.as_dict()}
    for label, run in (("with heuristic", with_h), ("without", without_h)):
        found = run.measured.names()
        top5 = [s.name for s in actual.top(5)]
        hit = sum(1 for nm in top5 if nm in found) / len(top5)
        table.add_row(
            [
                label,
                len(found),
                run.measured.rank_of("a") or "-",
                run.measured.rank_of("rsd") or "-",
                f"{hit:.2f}",
            ]
        )
        values[label] = {"found": found, "top5_hit_rate": hit}
    notes = [
        "expected: disabling zero-miss retention loses phase-quiet arrays "
        "(a/b/c go silent during applu's RHS phase) or finds fewer of the top 5",
    ]
    return ExperimentReport(
        experiment="ablation-phase",
        table=render_table(table),
        values=values,
        notes=notes,
    )


def run_multiplex_ablation(runner: ExperimentRunner, app: str = "su2cor") -> ExperimentReport:
    base = runner.baseline(app)
    interval = search_interval_of(base)
    real = runner.with_search(app, n=10, interval_cycles=interval)

    mux_sim = dataclasses.replace(runner.sim_spec, multiplexed_counters=True).build(
        runner.config.seed
    )
    mux = mux_sim.run(
        runner.make(app), tool=NWaySearch(n=10, interval_cycles=interval)
    )
    actual = base.actual
    table = Table(
        ["variant", "found", "top obj", "top share est %", "actual top share %"],
        title=f"Ablation: dedicated counters vs 1 multiplexed counter ({app})",
    )
    values: dict = {"actual": actual.as_dict()}
    for label, run in (("10 real counters", real), ("multiplexed", mux)):
        names = run.measured.names()
        top = names[0] if names else "-"
        table.add_row(
            [
                label,
                len(names),
                top,
                fmt_pct(run.measured.share_of(top)) if names else "-",
                fmt_pct(actual.share_of(top)) if names else "-",
            ]
        )
        values[label] = {"found": names, "measured": run.measured.as_dict()}
    notes = [
        "expected: multiplexing still finds the dominant object but with "
        "noisier estimates (each region observed 1/n of the time, scaled up)",
    ]
    return ExperimentReport(
        experiment="ablation-multiplex",
        table=render_table(table),
        values=values,
        notes=notes,
    )


def run_policy_ablation(runner: ExperimentRunner, app: str = "tomcatv") -> ExperimentReport:
    table = Table(
        ["policy", "top-3 actual", "top-3 sampled"],
        title=f"Ablation: replacement policy robustness ({app})",
    )
    values: dict = {}
    for policy in (ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM):
        cache = dataclasses.replace(runner.config.cache, policy=policy)
        sim = dataclasses.replace(runner.sim_spec, cache=cache).build(runner.config.seed)
        base = sim.run(runner.make(app))
        period = sampling_period_of(base)
        run = sim.run(
            runner.make(app),
            tool=SamplingProfiler(
                period=period, schedule=PeriodSchedule.PRIME, seed=runner.config.seed
            ),
        )
        actual3 = [s.name for s in base.actual.top(3)]
        sampled3 = [s.name for s in run.measured.top(3)]
        table.add_row([policy.value, ",".join(actual3), ",".join(sampled3)])
        values[policy.value] = {"actual_top3": actual3, "sampled_top3": sampled3}
    notes = ["expected: the top-3 object set is stable across replacement policies"]
    return ExperimentReport(
        experiment="ablation-policy",
        table=render_table(table),
        values=values,
        notes=notes,
    )
