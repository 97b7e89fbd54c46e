"""The repository benchmark: one command, four workloads.

One run (what BENCHMARK.json's ``command`` names)::

    python3 benchmarks/suite/run.py --workload sweep --seed 7 --seconds 25 --trace 0

sets the workload up, repeats whole passes of its grid for about
``--seconds`` seconds, checks every cell's output, and prints one JSON
line last: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` the entry points of every layer are wrapped (see
``tracer.py``) and the metrics are the per-layer breakdown. Details of
the run (pass times, cell digests, problems, and for traced runs the
spans) go to ``.benchsuite/`` in the checkout.

The whole suite (every workload ``--runs`` times untraced, one child
process at a time, then once traced)::

    python3 benchmarks/suite/run.py [--seed 1234] [--runs 5] [--workloads ...] [--out FILE]

prints every metric with its unit and writes a result set that
``compare.py`` compares. ``--refresh-expected`` rewrites the committed
per-cell digests for seed 1234 from one pass of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchsuite"

import grid  # noqa: E402
from compare import quartiles  # noqa: E402
from tracer import Tracer, install, self_times, span_counts  # noqa: E402

#: Seed whose per-cell digests are committed under ``expected/``.
EXPECTED_SEED = 1234
#: Fresh processes whose set-up time is measured per untraced run.
SETUP_PROBES = 5

#: Span name (see tracer.install) behind each per-layer self-time metric.
SELF_TIME_SPANS = {
    "workloads.compile_s": "workloads.compile",
    "workloads.stream_s": "workloads.stream",
    "cache.access_s": "cache.access",
    "cache.attribution_s": "cache.attribution",
    "hpm.observe_s": "hpm.observe",
    "core.handler_s": "core.handler",
    "sim.self_s": "sim",
    "sim.finalize_s": "sim.finalize",
    "experiments.result_cache_s": "experiments.result_cache",
    "experiments.self_s": "experiments",
}


def benchmark_spec() -> dict:
    """BENCHMARK.json: workloads, metric names and units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_checkout() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> None:
    """Pin this process (and the children it starts) to the CPU that runs
    a short interpreter loop fastest.

    On a shared virtual machine one virtual CPU can run tens of percent
    slower than another for minutes at a time, depending on what else
    the host runs on the core behind it; left to the scheduler, a run
    lands on either and its timings follow.
    """
    speeds = {}
    for cpu in sorted(os.sched_getaffinity(0))[:8]:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(_spin() for _ in range(7))
    os.sched_setaffinity(0, {min(speeds, key=speeds.get)})


# --------------------------------------------------------------- one run

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until ``workload`` is set up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe for {workload} exited with {code}")
    return elapsed


def measure(workload: str, seed: int, seconds: float, trace: bool,
            expected: dict | None = None, tiny: bool = False,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object ``main`` prints.

    ``expected`` maps cell labels to the digests every pass must match;
    without it, later passes must match the first.
    """
    work = grid.WORKLOADS[workload]
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    setups = [] if trace else [probe_setup(workload, seed) for _ in range(probes)]

    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    try:
        state = work.setup(seed, tiny)
        if tracer is not None:
            tracer.reset_counts()
        timed_from = time.perf_counter_ns()
        passes, first, problems = [], None, {}
        attempted = failed = 0
        while not passes or sum(p["seconds"] for p in passes) + statistics.fmean(
            p["seconds"] for p in passes
        ) <= seconds:
            cells = grid.Cells(tracer)
            pass_dir = tempfile.mkdtemp(dir=tmp)
            error = None
            t0 = time.perf_counter()
            try:
                work.run_pass(state, cells, pass_dir)
            except Exception:
                error = traceback.format_exc()
            elapsed = time.perf_counter() - t0
            shutil.rmtree(pass_dir, ignore_errors=True)

            digests = {label: grid.digest(r) for label, r in cells.results.items()}
            found = _problems(cells, error, digests, first["digests"] if first else expected)
            attempted += len(digests.keys() | found.keys())
            failed += len(found)
            problems.update(found)
            counts = grid.pass_counts(cells)
            if first is None:
                # Later passes add heap fragmentation, not work a user
                # running the grid once would see.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                first = {"digests": digests, "counts": counts}
            if error is None or not passes:  # time a partial pass only if alone
                passes.append({"seconds": elapsed, "refs": counts["refs"], "cells": cells.seconds})
            if error is not None:
                break

        rate = first["counts"]["refs"] / pass_seconds(passes)
        if trace:
            metrics = _layer_metrics(tracer, timed_from, passes, first["counts"], rate)
        else:
            metrics = {
                "refs_per_s": rate,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
        units = {m["name"]: m["unit"]
                 for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        if tracer is not None:
            tracer.save(f"{stem}-spans.npz")
        details = {"setup_probes_s": setups, "passes": passes,
                   "digests": first["digests"], "problems": problems, "result": result}
        Path(f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()


def _problems(cells: grid.Cells, error: str | None, digests: dict,
              reference: dict | None) -> dict[str, str]:
    """Failed cells of one pass, by label: invariant violations, the cell
    that raised, and digests that differ from ``reference``."""
    found = grid.problems(cells.results)
    if error is not None:
        found[cells.failed_label or "(between cells)"] = error
    if reference is not None:
        for label in digests.keys() | reference.keys():
            if digests.get(label) != reference.get(label):
                found.setdefault(
                    label, f"digest {digests.get(label)} != expected {reference.get(label)}"
                )
    return found


def pass_seconds(passes: list[dict]) -> float:
    """Host seconds of one pass: the sum over cells of each cell's
    fastest time across the run's passes, plus the least time spent
    between cells.

    Every pass does identical work, so its time varies only by
    interference from outside, which only ever adds time: on a shared
    host, stretches of a few seconds run 20-60 % slow. The fastest
    repeat of each cell is the estimate such stretches disturb least.
    """
    cells = sum(min(p["cells"].get(label, 0.0) for p in passes) for label in passes[0]["cells"])
    between = min(p["seconds"] - sum(p["cells"].values()) for p in passes)
    return cells + between


def _layer_metrics(tracer: Tracer, timed_from: int, passes: list, counts: dict,
                   rate: float) -> dict:
    """Per-pass layer breakdown of a traced run (see README.md)."""
    n = len(passes)
    wall = sum(p["seconds"] for p in passes)
    spans = tracer.arrays()
    size = len(tracer.names)
    timed = dict(zip(tracer.names, self_times(spans, size, since_ns=timed_from) / 1e9))
    total = dict(zip(tracer.names, self_times(spans, size) / 1e9))
    calls = dict(zip(tracer.names, span_counts(spans, size, since_ns=timed_from)))
    access_calls = int(calls["cache.access"])
    metrics = {name: timed[span] / n for name, span in SELF_TIME_SPANS.items()}
    metrics.update({
        "cache.access_calls": access_calls / n,
        "cache.refs_per_call": tracer.work["cache.access"] / max(1, access_calls),
        "hpm.observe_calls": int(calls["hpm.observe"]) / n,
        "sim.fused_runs": tracer.calls["sim.fused_runs"] / n,
        "experiments.cells": counts["cells"],
        "other_s": (wall - sum(timed.values())) / n,
        "trace.wall_s": wall / n,
        "trace.refs_per_s": rate,
        "trace.spans": int(sum(calls.values())) / n,
        "setup.workloads_s": sum(
            total[s] - timed[s] for s in ("workloads.compile", "workloads.stream")
        ),
    })
    for name in ("cache.miss_ratio", "cache.mechanism_rescued", "cache.contention_misses",
                 "core.interrupts", "core.instr_refs", "accuracy.sampling_err_pct",
                 "accuracy.search_err_pct", "accuracy.paper_err_pct"):
        metrics[name] = counts[name]
    return metrics


# ------------------------------------------------------------- the suite

def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def suite(workloads: list[str], runs: int, seed: int, seconds: float, out: Path) -> bool:
    """Run every workload ``runs`` times untraced and once traced."""
    report = {"seed": seed, "seconds": seconds, "runs": runs, "workloads": {}}
    ok = True
    for name in workloads:
        untraced = [_child(name, seed, seconds, 0) for _ in range(runs)]
        traced = _child(name, seed, seconds, 1)
        everything = untraced + [traced]
        summary = {
            metric: {"unit": untraced[0]["metrics"][metric]["unit"],
                     **_spread([r["metrics"][metric]["value"] for r in untraced])}
            for metric in untraced[0]["metrics"]
        }
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        entry = {
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "runs": untraced,
            "traced": traced,
            "summary": summary,
            "tracing_overhead": summary["refs_per_s"]["median"] / layers["trace.refs_per_s"],
            "coverage_other_frac": layers["other_s"] / layers["trace.wall_s"],
        }
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        ok &= entry["correct"]
        report["workloads"][name] = entry
        _print_workload(name, entry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"results: {out}")
    return ok


def _print_workload(name: str, entry: dict) -> None:
    print(f"== {name}: correct={entry['correct']} fail_frac={entry['fail_frac']:.3g} "
          f"({entry['failed']}/{entry['attempted']} cells)")
    for metric, s in entry["summary"].items():
        print(f"  {metric:28s} {s['median']:14.6g} {s['unit']:10s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={len(s['values'])}]")
    for metric, v in entry["traced"]["metrics"].items():
        print(f"  {metric:28s} {v['value']:14.6g} {v['unit']}")
    print(f"  tracing overhead {entry['tracing_overhead']:.3f}x, "
          f"other_s/wall {entry['coverage_other_frac']:.2%}")


def refresh_expected() -> bool:
    """Rewrite ``expected/seed-1234.json`` from one pass of every workload."""
    out = {"seed": EXPECTED_SEED, "workloads": {}}
    ok = True
    for name, work in grid.WORKLOADS.items():
        cells = grid.Cells()
        with tempfile.TemporaryDirectory(dir=OUT) as work_dir:
            work.run_pass(work.setup(EXPECTED_SEED, False), cells, work_dir)
        for label, problem in grid.problems(cells.results).items():
            print(f"{name} {label}: {problem}", file=sys.stderr)
            ok = False
        out["workloads"][name] = {label: grid.digest(r) for label, r in cells.results.items()}
    grid.EXPECTED_DIR.mkdir(exist_ok=True)
    path = grid.EXPECTED_DIR / f"seed-{EXPECTED_SEED}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(grid.WORKLOADS),
                        help="measure one run of this workload")
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (set-up probe)")
    parser.add_argument("--workloads", nargs="+", choices=sorted(grid.WORKLOADS),
                        default=list(grid.WORKLOADS))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--refresh-expected", action="store_true")
    args = parser.parse_args(argv)
    _check_checkout()
    if args.setup_only:
        grid.WORKLOADS[args.workload].setup(args.seed, False)
        print("ready", flush=True)
        return 0
    if args.refresh_expected:
        OUT.mkdir(exist_ok=True)
        return 0 if refresh_expected() else 1
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.workload is not None:
        # Keep every file the run writes inside the checkout.
        tempfile.tempdir = str(OUT / "tmp")
        pin_to_fastest_cpu()
        expected = grid.expected_digests(args.seed, args.workload)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
        print(json.dumps(result))
        return 0
    out = args.out or OUT / f"results-seed{args.seed}.json"
    return 0 if suite(args.workloads, args.runs, args.seed, args.seconds, out) else 1


if __name__ == "__main__":
    sys.exit(main())
