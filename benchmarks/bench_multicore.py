"""Throughput of interleaved multi-core sessions vs solo single-core runs.

Runs each co-runner pair twice: once as N independent single-core
``Simulator`` runs (the anchor — same streams, no sharing) and once
through :class:`~repro.sim.session.MultiCoreSession` (private L1s over
one shared LLC, deterministic round-robin interleaving, per-chunk
contention classification against the solo shadow model). The gated
quantity is the interleaved path's refs/sec: the interleaver, the
shared-level port protocol and the shadow classifier all sit on the hot
path, and this gate keeps per-chunk Python overhead from creeping in.

Each pair runs once more over compiled streams (the ``/compiled``
cases), which takes the fused multi-core path (DESIGN.md section 9);
their anchor is the compiled single-core run of each co-runner. Those
cases run on the array kernel, the one the fused path exists for.

Correctness rides along: every repeat must be bit-identical (per-core
stats and contention ledgers), each core's self + contention split
must conserve exactly against its observed shared-level misses, and a
compiled case must reproduce its generator case exactly.

Results land in ``BENCH_multicore.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_multicore.py [--repeats N]

Not collected by pytest (no test_ prefix): the CI perf job runs this
and gates the interleaved path's throughput against the committed
baseline via ``compare_bench.py`` (FAST_PATH "multicore-interleave" ->
paths/multicore).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from bench_env import environment

from repro.cache import CacheConfig
from repro.sim import MultiCoreSession, Simulator
from repro.workloads.compile import compile_workload
from repro.workloads.registry import make_workload

SEED = 99

#: Shared LLC and the private L1 fronting each core (same shapes the E14
#: driver derives at its default geometry).
LLC = CacheConfig(size=64 * 1024, line_size=64, assoc=4)
L1 = CacheConfig(size=8 * 1024, line_size=64, assoc=4)

#: Co-runner pairs to measure: integer codes with small footprints and
#: the two array walkers whose working sets actually fight over the LLC.
CASES = {
    "compress+ijpeg": [
        ("compress", {"input_lines": 30_000}),
        ("ijpeg", {"image_lines": 20_000}),
    ],
    "tomcatv+mgrid": [
        ("tomcatv", {"n_steps": 4, "rows_per_step": 16}),
        ("mgrid", {"n_vcycles": 4, "fine_lines": 9_000}),
    ],
}


#: Kernel the compiled (fused-path) cases run on.
COMPILED_BACKEND = "array"


def fresh_workloads(specs: list[tuple[str, dict]]) -> list:
    """Streams are consumed by a run, so every repeat gets new ones."""
    return [make_workload(name, seed=SEED, **kwargs) for name, kwargs in specs]


def geometry(compiled: list | None) -> tuple[CacheConfig, CacheConfig]:
    """(LLC, L1), on the compiled cases' kernel when streams are given."""
    if compiled is None:
        return LLC, L1
    return (
        dataclasses.replace(LLC, backend=COMPILED_BACKEND),
        dataclasses.replace(L1, backend=COMPILED_BACKEND),
    )


def outcome(result) -> tuple:
    """Per-core stats and contention ledgers (what must repeat exactly)."""
    return tuple(
        (core.stats, core.contention.ledger.snapshot()) for core in result.cores
    )


def time_solo(specs: list[tuple[str, dict]], repeats: int, compiled=None):
    """Best-of wall seconds (summed over cores) + total refs + misses."""
    llc, l1 = geometry(compiled)
    best = [float("inf")] * len(specs)
    refs = misses = 0
    for rep in range(repeats):
        refs = misses = 0
        for i, (app, kwargs) in enumerate(specs):
            workload = make_workload(app, seed=SEED, **kwargs)
            stream = None if compiled is None else compiled[i]
            t0 = time.perf_counter()
            result = Simulator(llc, l1_config=l1, seed=SEED).run(
                workload, compiled=stream
            )
            best[i] = min(best[i], time.perf_counter() - t0)
            refs += result.stats.app_refs
            misses += result.cache_stats.misses
    return sum(best), refs, misses


def time_multicore(specs: list[tuple[str, dict]], repeats: int, compiled=None):
    """Best-of wall seconds + the (determinism-checked) final result."""
    llc, l1 = geometry(compiled)
    best, fingerprint, keep = float("inf"), None, None
    for _ in range(repeats):
        workloads = fresh_workloads(specs)
        t0 = time.perf_counter()
        session = MultiCoreSession.start(
            workloads, llc_config=llc, l1_config=l1, seed=SEED, compiled=compiled
        )
        session.run()
        result = session.finalize()
        best = min(best, time.perf_counter() - t0)
        got = outcome(result)
        if fingerprint is None:
            fingerprint, keep = got, result
        elif got != fingerprint:
            raise AssertionError("non-deterministic multi-core result")
        for core in result.cores:
            ledger = core.contention.ledger
            split = ledger.self_misses + ledger.contention_misses
            if split != ledger.classified_misses != core.cache_stats.misses:
                raise AssertionError(
                    f"core {core.core_id}: self {ledger.self_misses} + "
                    f"contention {ledger.contention_misses} != observed "
                    f"{core.cache_stats.misses} shared-level misses"
                )
    return best, keep


def bench_case(
    name: str, specs: list[tuple[str, dict]], repeats: int, compiled=None
) -> tuple[dict, object]:
    solo_seconds, refs, solo_misses = time_solo(specs, repeats, compiled)
    mc_seconds, result = time_multicore(specs, repeats, compiled)
    contention = sum(
        core.contention.ledger.contention_misses for core in result.cores
    )
    case = {
        "case": name,
        "backend": geometry(compiled)[0].backend,
        "refs": int(refs),
        "paths": {
            "solo": {
                "seconds": round(solo_seconds, 4),
                "refs_per_sec": round(refs / solo_seconds),
                "llc_misses": int(solo_misses),
            },
            "multicore": {
                "seconds": round(mc_seconds, 4),
                "refs_per_sec": round(refs / mc_seconds),
                "llc_misses": int(result.cache_stats.misses),
                "contention_misses": int(contention),
            },
        },
        "slowdown_multicore_vs_solo": round(mc_seconds / solo_seconds, 2),
    }
    return case, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_multicore.json"
        ),
    )
    args = parser.parse_args(argv)

    cases = []
    for name, specs in CASES.items():
        case, result = bench_case(name, specs, args.repeats)
        streams = [compile_workload(w) for w in fresh_workloads(specs)]
        fused, fused_result = bench_case(
            f"{name}/compiled", specs, args.repeats, compiled=streams
        )
        if outcome(fused_result) != outcome(result):
            raise AssertionError(f"{name}: compiled run differs from generator run")
        cases += [case, fused]
    for case in cases:
        mc = case["paths"]["multicore"]
        print(
            f"{case['case']:>25}: {case['refs']:>8,} refs  "
            f"solo {case['paths']['solo']['refs_per_sec']:>10,}/s  "
            f"multicore {mc['refs_per_sec']:>10,}/s  "
            f"(contention {mc['contention_misses']:,}, "
            f"x{case['slowdown_multicore_vs_solo']} vs solo)"
        )

    payload = {
        "benchmark": "multicore-interleave",
        "seed": SEED,
        "repeats": args.repeats,
        "llc": LLC.describe(),
        "l1": L1.describe(),
        "environment": environment(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
