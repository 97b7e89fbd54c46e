"""Throughput of mechanism-decorated cache stacks vs the plain kernel.

Replays the same reference streams through the undecorated array kernel
and through each mechanism stack on the same kernel (victim cache, miss
cache, stream buffers, and the two classic pairings — see
``repro.cache.components``), reporting refs/sec per stack. A decorated
stack runs its cache chunk-wise on the array kernel, asking it for each
miss's victim, and walks only that miss stream through the mechanism's
small buffer in Python; the gate guards that path, so a change that
puts per-reference work back into decorated runs shows up as a drop
against the plain kernel's rate.

Correctness rides along: every decorated stack must post no more misses
than the plain cache over the identical stream, the leaf ledger must
match the plain run exactly (decoration never changes leaf evolution),
and repeated runs must be bit-identical.

Results land in ``BENCH_mechanisms.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_mechanisms.py [--repeats N]

Not collected by pytest (no test_ prefix): the CI perf job runs this
and gates the ``vc`` stack's throughput against the committed baseline
via ``compare_bench.py`` (FAST_PATH "mechanism-stacks" -> stacks/vc).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

import numpy as np

from bench_env import environment

from repro.cache import CacheConfig, make_cache
from repro.experiments.mechanisms import MECHANISM_CHOICES
from repro.workloads.registry import make_workload

CHUNK = 1 << 15  # the engine's chunk size

SEED = 99

#: Per-case stream cap: long enough to warm every buffer, short enough
#: that every stack x repeats stays in CI budget.
MAX_REFS = 150_000

CFG = CacheConfig(size=32 * 1024, line_size=64, assoc=2)

#: Streams to measure: a sequential-heavy app (SB territory) and a
#: conflict-heavy stencil (VC/MC territory).
CASES = {
    "compress": {"input_lines": 30_000},
    "tomcatv": {"n_steps": 4, "rows_per_step": 16},
}


def workload_stream(name: str, **kwargs) -> np.ndarray:
    wl = make_workload(name, seed=SEED, **kwargs)
    addrs = np.concatenate([b.addrs for b in wl.blocks()])
    return addrs[:MAX_REFS]


def conflict_stream() -> np.ndarray:
    """assoc+1 lines fighting over each of 8 sets — pure conflict
    misses, the stream a victim cache exists for."""
    n_sets = CFG.n_sets
    ways = CFG.assoc + 1
    lines = np.array(
        [
            (i % 8) + ((i // 8) % ways) * n_sets
            for i in range(MAX_REFS)
        ],
        dtype=np.uint64,
    )
    return lines * np.uint64(CFG.line_size)


#: Kernel every stack, the plain one included, runs on.
BACKEND = "array"


def time_stack(mech: str | None, addrs: np.ndarray, repeats: int):
    """Best-of wall seconds + (total, leaf) miss counts for one stack."""
    cfg = dataclasses.replace(CFG, mechanisms=mech or ())
    best, misses, leaf_misses = float("inf"), None, None
    for _ in range(repeats):
        cache = make_cache(cfg, seed=7, backend=BACKEND)
        t0 = time.perf_counter()
        for pos in range(0, len(addrs), CHUNK):
            cache.access(addrs[pos : pos + CHUNK])
        best = min(best, time.perf_counter() - t0)
        got = cache.stats.misses
        got_leaf = cache.component_ledgers()[-1][1].misses
        if misses is None:
            misses, leaf_misses = got, got_leaf
        elif (misses, leaf_misses) != (got, got_leaf):
            raise AssertionError(f"{mech}: non-deterministic miss count")
    return best, misses, leaf_misses


def bench_case(name: str, addrs: np.ndarray, repeats: int) -> dict:
    result = {"case": name, "refs": int(len(addrs)), "stacks": {}}
    plain_best, plain_misses, _ = time_stack(None, addrs, repeats)
    result["stacks"]["plain"] = {
        "seconds": round(plain_best, 4),
        "refs_per_sec": round(len(addrs) / plain_best),
        "misses": int(plain_misses),
    }
    for mech in MECHANISM_CHOICES:
        best, misses, leaf = time_stack(mech, addrs, repeats)
        if misses > plain_misses:
            raise AssertionError(
                f"{name}/{mech}: {misses} misses > plain {plain_misses}; "
                "a mechanism may never add misses"
            )
        if leaf != plain_misses:
            raise AssertionError(
                f"{name}/{mech}: leaf saw {leaf} misses, plain saw "
                f"{plain_misses}; decoration changed leaf evolution"
            )
        result["stacks"][mech] = {
            "seconds": round(best, 4),
            "refs_per_sec": round(len(addrs) / best),
            "misses": int(misses),
            "rescued": int(plain_misses - misses),
        }
    result["slowdown_vc_vs_plain"] = round(
        result["stacks"]["vc"]["seconds"] / plain_best, 2
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_mechanisms.json"
        ),
    )
    args = parser.parse_args(argv)

    cases = []
    streams = {
        name: workload_stream(name, **kwargs) for name, kwargs in CASES.items()
    }
    streams["conflict"] = conflict_stream()
    for name, addrs in streams.items():
        case = bench_case(name, addrs, args.repeats)
        cases.append(case)
        vc = case["stacks"]["vc"]
        sb = case["stacks"]["sb"]
        print(
            f"{name:>10}: {case['refs']:>8,} refs  "
            f"plain {case['stacks']['plain']['refs_per_sec']:>10,}/s  "
            f"vc {vc['refs_per_sec']:>9,}/s (rescued {vc['rescued']:,})  "
            f"sb {sb['refs_per_sec']:>9,}/s (rescued {sb['rescued']:,})"
        )

    payload = {
        "benchmark": "mechanism-stacks",
        "seed": SEED,
        "repeats": args.repeats,
        "max_refs": MAX_REFS,
        "backend": BACKEND,
        "cache": CFG.describe(),
        "environment": environment(),
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
