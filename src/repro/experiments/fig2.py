"""Experiment E7 — Figure 2: why the search needs its priority queue.

Runs the Figure-2 layout (region aggregating 60% of misses vs a sibling
containing the single hottest array E at 35%) under the real
backtracking search and under the greedy variant. Expected shape: the
priority-queue search ranks E first; the greedy search terminates on an
array from the 60% region (the paper's diagram ends on C) and misses E.
"""

from __future__ import annotations

from repro.core.greedy_search import GreedySearch
from repro.core.search import NWaySearch
from repro.experiments.records import ExperimentReport
from repro.experiments.runner import ExperimentRunner, search_interval_of
from repro.util.format import Table, render_table
from repro.util.units import fmt_pct
from repro.workloads.synthetic import FigureTwoLayout


def run_fig2(
    runner: ExperimentRunner,
    n: int = 2,
    rounds: int = 120,
) -> ExperimentReport:
    def fresh():
        return FigureTwoLayout(seed=runner.config.seed, rounds=rounds)

    base = runner.simulator.run(fresh())
    interval = search_interval_of(base)

    pq_run = runner.simulator.run(
        fresh(), tool=NWaySearch(n=n, interval_cycles=interval)
    )
    greedy_run = runner.simulator.run(
        fresh(), tool=GreedySearch(n=n, interval_cycles=interval)
    )

    actual = base.actual
    table = Table(
        ["object", "actual %", "PQ-search rank", "greedy rank"],
        title=f"Figure 2: {n}-way search with vs without the priority queue",
    )
    for share in actual.top(6):
        table.add_row(
            [
                share.name,
                fmt_pct(share.share),
                pq_run.measured.rank_of(share.name) or "-",
                greedy_run.measured.rank_of(share.name) or "-",
            ]
        )
    pq_top = pq_run.measured.names()[0] if pq_run.measured.names() else None
    greedy_top = greedy_run.measured.names()[0] if greedy_run.measured.names() else None
    values = {
        "actual": actual.as_dict(),
        "pq_found": pq_run.measured.names(),
        "greedy_found": greedy_run.measured.names(),
        "pq_top": pq_top,
        "greedy_top": greedy_top,
        "hottest": actual.names()[0],
    }
    notes = [
        f"hottest array: {actual.names()[0]} "
        f"(PQ search top: {pq_top}; greedy top: {greedy_top})",
        "expected: PQ search finds E; greedy terminates inside the 60% region",
    ]
    return ExperimentReport(
        experiment="fig2", table=render_table(table), values=values, notes=notes
    )
