"""Compare two result sets written by ``run.py`` (parent A, change B).

    python3 benchmarks/suite/compare.py A.json B.json

For every (workload, end-to-end metric) both sets share, prints each
side's median and quartiles, the share of run pairs (A's i-th run
against B's i-th run) that B wins, and a verdict. The bounds come from
BENCHMARK.json. Verdicts, following the repository's measuring rules:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``improved`` — B wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than A's quartile spread;
* ``unresolved`` — the run-to-run spread (either side's quartile
  distance over its median) exceeds the bound, unless every run of B is
  better than every run of A;
* ``unchanged`` — otherwise.

Exits 1 if any verdict is ``worse``. Per-layer metrics of the two
traced runs are printed beside, as plain deltas: one traced run per side
is a breakdown, not a test.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, B's pair win rate) for one metric; see the module doc."""
    sign = 1.0 if better == "higher" else -1.0
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    if sign * (am - bm) > bound * abs(am):
        return "worse", win_rate
    if win_rate >= 0.9 and sign * (bm - am) > a3 - a1:
        return "improved", win_rate
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    all_better = min(b) > max(a) if sign > 0 else max(b) < min(a)
    if spread > bound and not all_better:
        return "unresolved", win_rate
    return "unchanged", win_rate


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    """One row per (workload, end-to-end metric) present in both sets."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            result, win_rate = verdict(va, vb, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": quartiles(va), "b": quartiles(vb), "win_rate": win_rate,
                "verdict": result,
            })
    return rows


def _layer_deltas(a: dict, b: dict) -> list[str]:
    lines = []
    for workload, entry in a["workloads"].items():
        if workload not in b["workloads"]:
            continue
        la = entry["traced"]["metrics"]
        lb = b["workloads"][workload]["traced"]["metrics"]
        for name in la:
            if name in lb:
                x, y = la[name]["value"], lb[name]["value"]
                rel = f"{(y - x) / x:+.1%}" if x else "-"
                lines.append(f"  {workload:10s} {name:28s} {x:12.6g} -> {y:12.6g} {rel}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(BENCHMARK.read_text())
    rows = compare(a, b, spec)
    print(f"{'workload':10s} {'metric':12s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'B wins':>7s}  verdict")
    for r in rows:
        a1, am, a3 = r["a"]
        b1, bm, b3 = r["b"]
        print(f"{r['workload']:10s} {r['metric']:12s} "
              f"{am:12.6g} [{a1:.6g}, {a3:.6g}] {bm:12.6g} [{b1:.6g}, {b3:.6g}] "
              f"{r['win_rate']:6.0%}  {r['verdict']}")
    print("per-layer (traced run, A -> B):")
    print("\n".join(_layer_deltas(a, b)))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
