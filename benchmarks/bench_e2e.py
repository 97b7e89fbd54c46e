"""End-to-end simulator throughput: generator path vs compiled streams.

Runs the Table 1 quick suite (the same per-app kwargs the experiment
runner's ``--quick`` preset uses) through ``Simulator.run`` twice per
application:

* **generator** — the default configuration: workload generator feeding
  the ``reference`` cache kernel, exactly what a stock run paid before
  stream compilation existed;
* **compiled** — ``compile_streams=True`` over a warm on-disk stream
  cache with ``backend="auto"``, the fast path this repository ships.

Both runs keep ground-truth attribution on (the paper's "Actual" column
is part of every Table 1 run), and the benchmark asserts they agree on
miss counts before recording any timing — a speedup that breaks
bit-identity is a bug, not a result.

Alongside the quick cases, a ``*-steady`` group scales each workload's
*time* dimension 4x at the same memory footprint. Quick runs are so
short that per-run fixed costs (session setup, stream-cache load,
finalize) eat a visible fraction of the wall time; the steady cases show
the amortised throughput longer experiments actually see.

The ``*-sampling`` and ``*-search`` cases time the instrumented path the
paper is about: :data:`INSTRUMENTED_APP` at quick size under the Table 1
sampling profiler and 10-way search, with the period and interval the
experiment runner picks for it. Sampling cuts the stream into kernel
calls that each stop at the period's next miss, and the search
reprograms counters on every timer interrupt, so these cases pay
per-call costs the bulk runs never see. Both paths must measure the same profile before any timing
is recorded. All groups land in ``BENCH_e2e.json`` with environment
metadata for the CI perf gate (see EXPERIMENTS.md).

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e.py [--repeats N] [--quick-only]

Not collected by pytest (no test_ prefix): this is a tooling script the
CI workflow runs to track the end-to-end speedup over time.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from bench_env import environment

from repro.cache.config import CacheConfig
from repro.core.sampling import SamplingProfiler
from repro.core.search import NWaySearch
from repro.experiments.runner import _QUICK_KWARGS, ExperimentRunner, RunnerConfig
from repro.sim.engine import Simulator
from repro.workloads.compile import compiled_stream_for
from repro.workloads.registry import make_workload, workload_names

SEED = 1234

#: The application of the instrumented cases: its misses are sparse, so
#: a sampling budget spans several of the array kernel's budget windows.
INSTRUMENTED_APP = "compress"

#: Same footprints as the quick suite, 4x the time dimension: more
#: steps/iterations over the same arrays, so cache behaviour per
#: reference is unchanged but fixed per-run costs amortise away.
_STEADY_KWARGS: dict[str, dict] = {
    "tomcatv": {"n_steps": 16, "rows_per_step": 16},
    "swim": {"n_steps": 16, "lines_per_array_per_step": 1600},
    "su2cor": {"total_lines": 160000, "slices_per_era": 96},
    "mgrid": {"n_vcycles": 16, "fine_lines": 9000},
    "applu": {"n_iterations": 28, "jacobian_lines": 4500},
    "compress": {"input_lines": 120000},
    "ijpeg": {"image_lines": 80000},
}


def _simulators(stream_dir: str) -> tuple[Simulator, Simulator]:
    gen = Simulator(CacheConfig(), seed=7)
    fast = Simulator(
        CacheConfig(backend="auto"),
        seed=7,
        compile_streams=True,
        stream_cache_dir=stream_dir,
    )
    return gen, fast


def _time_run(sim: Simulator, app: str, kwargs: dict, repeats: int, tool=None):
    """Best-of-``repeats`` wall seconds for one full ``Simulator.run``.

    A fresh workload instance per repeat keeps the generator path honest:
    reusing one instance would let ``reset()`` skim preparation work the
    first run paid. ``tool`` builds a fresh instrumentation tool per run.
    """
    best, stats = float("inf"), None
    for _ in range(repeats):
        workload = make_workload(app, seed=SEED, **kwargs)
        run_tool = None if tool is None else tool()
        t0 = time.perf_counter()
        result = sim.run(workload, tool=run_tool)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if stats is None:
            stats = result.stats
        elif (stats.app_misses, stats.app_refs) != (
            result.stats.app_misses,
            result.stats.app_refs,
        ):
            raise AssertionError(f"{app}: non-deterministic run stats")
    return best, stats


def _instrumented_tools(app: str) -> dict:
    """Table 1's sampling profiler and 10-way search for ``app`` at quick
    size, with the period and interval the experiment runner picks."""
    runner = ExperimentRunner(RunnerConfig(seed=SEED), quick=True)
    period = runner.scaled_sampling_period(app)
    interval = runner.search_interval(app)
    return {
        "sampling": lambda: SamplingProfiler(period=period, seed=SEED),
        "search": lambda: NWaySearch(n=10, interval_cycles=interval),
    }


def _same_measured_profile(
    name: str, app: str, kwargs: dict, gen: Simulator, fast: Simulator, tool
) -> None:
    """Both paths must measure the same profile under ``tool``."""
    profiles = [
        sim.run(make_workload(app, seed=SEED, **kwargs), tool=tool()).measured
        for sim in (gen, fast)
    ]
    if profiles[0].as_dict() != profiles[1].as_dict():
        raise AssertionError(
            f"{name}: compiled path measured a different profile from the "
            "generator path"
        )


def bench_case(
    name: str,
    app: str,
    kwargs: dict,
    gen: Simulator,
    fast: Simulator,
    repeats: int,
    tool=None,
) -> dict:
    # Warm the stream cache so timed runs measure the steady state an
    # experiment grid sees (cached load), not one-off compilation.
    compiled_stream_for(
        make_workload(app, seed=SEED, **kwargs), fast.stream_cache_dir
    )
    if tool is not None:
        _same_measured_profile(name, app, kwargs, gen, fast, tool)
    gen_best, gen_stats = _time_run(gen, app, kwargs, repeats, tool)
    fast_best, fast_stats = _time_run(fast, app, kwargs, repeats, tool)
    if (gen_stats.app_misses, gen_stats.app_refs) != (
        fast_stats.app_misses,
        fast_stats.app_refs,
    ):
        raise AssertionError(
            f"{name}: compiled path diverged from generator path "
            f"(gen misses={gen_stats.app_misses}, "
            f"compiled misses={fast_stats.app_misses})"
        )
    refs = int(gen_stats.app_refs)
    return {
        "case": name,
        "refs": refs,
        "misses": int(gen_stats.app_misses),
        "paths": {
            "generator": {
                "seconds": round(gen_best, 4),
                "refs_per_sec": round(refs / gen_best),
            },
            "compiled": {
                "seconds": round(fast_best, 4),
                "refs_per_sec": round(refs / fast_best),
            },
        },
        "speedup_compiled_vs_generator": round(gen_best / fast_best, 2),
    }


def _print_case(case: dict) -> None:
    print(
        f"{case['case']:>16}: {case['refs']:>9,} refs  "
        f"compiled {case['paths']['compiled']['refs_per_sec']:>11,} refs/s  "
        f"speedup {case['speedup_compiled_vs_generator']:.2f}x"
    )


def _aggregate(cases: list[dict], group: str) -> dict:
    refs = sum(c["refs"] for c in cases)
    gen_s = sum(c["paths"]["generator"]["seconds"] for c in cases)
    fast_s = sum(c["paths"]["compiled"]["seconds"] for c in cases)
    return {
        "case": f"aggregate-{group}",
        "refs": refs,
        "paths": {
            "generator": {
                "seconds": round(gen_s, 4),
                "refs_per_sec": round(refs / gen_s),
            },
            "compiled": {
                "seconds": round(fast_s, 4),
                "refs_per_sec": round(refs / fast_s),
            },
        },
        "speedup_compiled_vs_generator": round(gen_s / fast_s, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick-only",
        action="store_true",
        help="skip the *-steady scaled cases (faster, noisier)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_e2e.json"),
    )
    args = parser.parse_args(argv)

    groups: list[tuple[str, dict[str, dict]]] = [("quick", _QUICK_KWARGS)]
    if not args.quick_only:
        groups.append(("steady", _STEADY_KWARGS))

    results: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench-e2e-streams-") as streams:
        gen, fast = _simulators(streams)
        for group, kwarg_map in groups:
            group_cases = []
            for app in workload_names():
                name = f"{app}-{group}"
                case = bench_case(
                    name, app, kwarg_map[app], gen, fast, args.repeats
                )
                group_cases.append(case)
                results.append(case)
                _print_case(case)
            agg = _aggregate(group_cases, group)
            results.append(agg)
            _print_case(agg)
        app = INSTRUMENTED_APP
        for kind, tool in _instrumented_tools(app).items():
            case = bench_case(
                f"{app}-{kind}", app, _QUICK_KWARGS[app], gen, fast, args.repeats, tool
            )
            results.append(case)
            _print_case(case)

    payload = {
        "benchmark": "end-to-end-simulator",
        "seed": SEED,
        "repeats": args.repeats,
        "environment": environment(),
        "cases": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
