"""``reprolint`` — AST-based invariant linter for this reproduction.

The simulation's correctness rests on invariants the methodology demands
but ordinary tests only probe: bit-for-bit determinism (sampled-vs-full
comparisons are meaningless if reruns drift) and process safety across
the worker pool's fork boundary. ``reprolint`` enforces the
statically-checkable half of each, before anything runs::

    python -m repro.lint src/            # or: repro lint src/
    python -m repro.lint --format json src/
    python -m repro.lint --list-rules

Rule families: RPL1xx determinism, RPL7xx process/fork safety. Cache
keys, stream fingerprints, kernel parity, stats purity, snapshot
payloads and live objects in a grid cell's inputs are guarded at run
time instead (DESIGN.md section 7). Suppress a deliberate exception
with ``# reprolint: disable=RPLxxx -- reason`` on the line (or
``# reprolint: disable-file=RPLxxx -- reason`` for a whole file) — see
DESIGN.md section 7 for the policy.
"""

from repro.lint.framework import (
    LintReport,
    ParsedModule,
    Rule,
    SuppressionRecord,
    Violation,
    all_rules,
    collect_files,
    format_human,
    format_json,
    run_lint,
    run_lint_report,
)

__all__ = [
    "LintReport",
    "ParsedModule",
    "Rule",
    "SuppressionRecord",
    "Violation",
    "all_rules",
    "collect_files",
    "format_human",
    "format_json",
    "run_lint",
    "run_lint_report",
]
