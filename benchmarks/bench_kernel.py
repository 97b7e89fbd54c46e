"""Head-to-head throughput benchmark of the cache kernel backends.

Replays the same reference streams through the "reference", "array"
and "auto" kernels, reports refs/sec per backend, and sanity-checks that
all saw exactly the same miss counts (the backends are contractually
bit-identical — see DESIGN.md section 6). Every case runs the 4-way
geometry in the file's ``config`` except ``*-1way``, which runs the same
size direct-mapped: 1-way caches are ``SetAssociativeCache`` on these
kernels too, so the gate watches that path as well. Results land in
``BENCH_kernel.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernel.py [--repeats N]

Not collected by pytest (no test_ prefix): this is a tooling script the
CI workflow runs after the suite to track the speedup over time.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from bench_env import environment

from repro.cache.config import CacheConfig
from repro.cache.kernels import KERNEL_BACKENDS
from repro.cache.set_assoc import SetAssociativeCache
from repro.workloads.registry import make_workload

CHUNK = 1 << 15  # the engine's chunk size

#: Streams to measure: (name, workload kwargs or None for synthetic).
QUICK_TOMCATV = {"n_steps": 4, "rows_per_step": 16}


def workload_stream(name: str, **kwargs) -> np.ndarray:
    wl = make_workload(name, seed=99, **kwargs)
    return np.concatenate([b.addrs for b in wl.blocks()])


def synthetic_stream(n: int, n_lines: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    lines = rng.integers(0, n_lines, n)
    return lines.astype(np.uint64) * np.uint64(64)


def time_backend(backend: str, addrs: np.ndarray, cfg: CacheConfig, repeats: int):
    """Best-of-``repeats`` wall time to stream ``addrs`` chunk by chunk."""
    best, misses = float("inf"), None
    for _ in range(repeats):
        cache = SetAssociativeCache(cfg, seed=7, backend=backend)
        t0 = time.perf_counter()
        for pos in range(0, len(addrs), CHUNK):
            cache.access(addrs[pos : pos + CHUNK])
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if misses is None:
            misses = cache.stats.misses
        elif misses != cache.stats.misses:
            raise AssertionError(f"{backend}: non-deterministic miss count")
    return best, misses


def bench_case(name: str, addrs: np.ndarray, cfg: CacheConfig, repeats: int) -> dict:
    result = {"case": name, "refs": int(len(addrs)), "assoc": cfg.assoc, "backends": {}}
    miss_counts = {}
    for backend in KERNEL_BACKENDS:
        best, misses = time_backend(backend, addrs, cfg, repeats)
        miss_counts[backend] = misses
        result["backends"][backend] = {
            "seconds": round(best, 4),
            "refs_per_sec": round(len(addrs) / best),
            "misses": int(misses),
        }
    if len(set(miss_counts.values())) != 1:
        raise AssertionError(f"{name}: backends disagree on misses {miss_counts}")
    ref = result["backends"]["reference"]["seconds"]
    arr = result["backends"]["array"]["seconds"]
    result["speedup_array_vs_reference"] = round(ref / arr, 2)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_kernel.json"),
    )
    args = parser.parse_args(argv)

    cfg = CacheConfig(size=256 * 1024, assoc=4)
    one_way = CacheConfig(size=cfg.size, assoc=1)
    uniform = synthetic_stream(400_000, 8192, seed=1)
    cases = [
        ("tomcatv-quick", workload_stream("tomcatv", **QUICK_TOMCATV), cfg),
        (
            "swim-quick",
            workload_stream("swim", n_steps=4, lines_per_array_per_step=1600),
            cfg,
        ),
        ("uniform-2x-cache", uniform, cfg),
        ("hot-set-in-cache", synthetic_stream(400_000, 2048, seed=2), cfg),
        # Conflict-heavy at assoc=1: half the references miss.
        ("uniform-2x-cache-1way", uniform, one_way),
    ]
    results = []
    for name, addrs, case_cfg in cases:
        case = bench_case(name, addrs, case_cfg, args.repeats)
        results.append(case)
        arr = case["backends"]["array"]
        print(
            f"{name:>21}: {case['refs']:>8,} refs  "
            f"array {arr['refs_per_sec']:>11,} refs/s  "
            f"speedup {case['speedup_array_vs_reference']:.2f}x"
        )

    payload = {
        "benchmark": "cache-kernel-backends",
        "config": {"size": cfg.size, "assoc": cfg.assoc, "chunk": CHUNK},
        "repeats": args.repeats,
        "environment": environment(),
        "cases": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    tomcatv = results[0]
    if tomcatv["speedup_array_vs_reference"] < 2.0:
        print(
            "WARNING: array backend below the 2x target on tomcatv-quick "
            f"({tomcatv['speedup_array_vs_reference']:.2f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
