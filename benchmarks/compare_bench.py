"""Compare fresh benchmark JSON against a committed baseline (perf gate).

The CI ``perf`` job reruns ``bench_kernel.py`` / ``bench_e2e.py`` /
``bench_mrc.py`` and feeds both the fresh file and the committed
``BENCH_*.json`` through this script. Per case, the gate compares the
*fast path's* refs/sec (``array`` backend for the kernel benchmark,
``compiled`` path for the end-to-end one, the one-pass ``mrc`` engine
for the sweep benchmark):

* drop > ``--fail-pct`` (default 25%) — regression, exit 1;
* drop > ``--warn-pct`` (default 10%) — warning, exit 0;
* anything else (including improvements) — OK.

Shared-runner throughput is noisy, hence the wide band: the gate exists
to catch "someone reintroduced the per-reference Python loop", not 3%
jitter. When the recorded environment (python/numpy/CPU — see
``bench_env.py``) differs from the current one, regressions downgrade to
warnings: a different CPU legitimately produces different numbers, and a
hard failure would just teach people to ignore the gate.

A GitHub-flavoured markdown delta table is appended to the file named by
``$GITHUB_STEP_SUMMARY`` when that variable is set (and always printed
to stdout), so the job summary shows per-case deltas at a glance.

Usage::

    python benchmarks/compare_bench.py BASELINE.json FRESH.json \
        [--fail-pct 25] [--warn-pct 10]

Not collected by pytest (no test_ prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bench_env import environment_drift

#: Fast path to gate on, per benchmark kind (the slow path is the
#: comparison anchor inside each file, not a gated quantity).
FAST_PATH = {
    "cache-kernel-backends": ("backends", "array"),
    "end-to-end-simulator": ("paths", "compiled"),
    "mrc-sweep": ("paths", "mrc"),
    # Decorated stacks walk their cache's miss stream in Python; the
    # gated quantity is the vc stack's refs/sec on the array kernel so
    # that path can't quietly regress.
    "mechanism-stacks": ("stacks", "vc"),
    # The interleaved multi-core path carries the shared-port protocol
    # and the shadow classifier on its hot loop; the solo path inside
    # each file is the anchor, the interleaved refs/sec is gated.
    "multicore-interleave": ("paths", "multicore"),
}


def fast_refs_per_sec(payload: dict, case: dict) -> int | None:
    group_key, path_key = FAST_PATH.get(payload.get("benchmark", ""), (None, None))
    if group_key is None:
        return None
    entry = case.get(group_key, {}).get(path_key)
    return None if entry is None else entry.get("refs_per_sec")


def compare(baseline: dict, fresh: dict, fail_pct: float, warn_pct: float):
    """(rows, regressions, warnings) of the per-case delta table."""
    fresh_cases = {c["case"]: c for c in fresh.get("cases", [])}
    rows: list[tuple[str, str, str, str, str]] = []
    regressions: list[str] = []
    warnings: list[str] = []
    for case in baseline.get("cases", []):
        name = case["case"]
        base_rps = fast_refs_per_sec(baseline, case)
        if base_rps is None:
            continue
        fresh_case = fresh_cases.get(name)
        if fresh_case is None:
            warnings.append(f"{name}: present in baseline but not in fresh run")
            rows.append((name, f"{base_rps:,}", "—", "—", "missing"))
            continue
        new_rps = fast_refs_per_sec(fresh, fresh_case)
        if new_rps is None:
            warnings.append(f"{name}: fresh run lacks the gated fast path")
            rows.append((name, f"{base_rps:,}", "—", "—", "missing"))
            continue
        delta_pct = 100.0 * (new_rps - base_rps) / base_rps
        if delta_pct < -fail_pct:
            status = "FAIL"
            regressions.append(f"{name}: {delta_pct:+.1f}% vs baseline")
        elif delta_pct < -warn_pct:
            status = "warn"
            warnings.append(f"{name}: {delta_pct:+.1f}% vs baseline")
        else:
            status = "ok"
        rows.append(
            (name, f"{base_rps:,}", f"{new_rps:,}", f"{delta_pct:+.1f}%", status)
        )
    for name in fresh_cases:
        if name not in {c["case"] for c in baseline.get("cases", [])}:
            warnings.append(f"{name}: new case with no baseline (add one)")
    return rows, regressions, warnings


def markdown_table(title: str, rows: list[tuple[str, str, str, str, str]]) -> str:
    lines = [
        f"### {title}",
        "",
        "| case | baseline refs/s | fresh refs/s | delta | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    lines += [f"| {' | '.join(row)} |" for row in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("fresh", type=Path)
    parser.add_argument("--fail-pct", type=float, default=25.0)
    parser.add_argument("--warn-pct", type=float, default=10.0)
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = json.loads(args.fresh.read_text())
    if baseline.get("benchmark") != fresh.get("benchmark"):
        print(
            f"cannot compare {baseline.get('benchmark')!r} "
            f"baseline against {fresh.get('benchmark')!r} fresh run",
            file=sys.stderr,
        )
        return 2

    rows, regressions, warnings = compare(
        baseline, fresh, args.fail_pct, args.warn_pct
    )
    drift = environment_drift(
        baseline.get("environment"), fresh.get("environment")
    )

    table = markdown_table(
        f"Perf gate: {baseline.get('benchmark')}", rows
    )
    if drift:
        table += (
            f"\nEnvironment drift ({', '.join(drift)}) — regressions "
            "downgraded to warnings.\n"
        )
    print(table)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(table + "\n")

    for message in warnings:
        print(f"warning: {message}")
    if regressions and drift:
        for message in regressions:
            print(f"warning (env drift): {message}")
        return 0
    if regressions:
        for message in regressions:
            print(f"REGRESSION: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
