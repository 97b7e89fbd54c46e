#!/usr/bin/env python3
"""Closing the tuning loop: profile -> diagnose -> plan.

The paper's techniques answer "which data structure misses?". This
example layers the analysis package on top to answer the follow-ups:

1. profile a mixed workload (one streaming array, one thrashing array,
   one resident table) with the 10-way search;
2. diagnose each hot object's miss *pattern* from a reference sample
   (streaming vs thrashing vs conflicting) with suggested remedies;
3. plot the miss-ratio curve to see whether a bigger cache would help —
   and find the knee where the thrashing array starts to fit.

Run:  python examples/cache_planning.py
"""

import numpy as np

from repro import CacheConfig, NWaySearch, Simulator
from repro.analysis import advise, analyse_conflicts
from repro.analysis.advisor import advice_table
from repro.cache.mrc import mrc_from_addrs
from repro.util.charts import hbar_chart
from repro.util.units import fmt_bytes
from repro.workloads.base import Workload

CACHE = CacheConfig(size="128K", assoc=4)


class MixedKernel(Workload):
    """stream: touched once per pass (no reuse); hot_grid: swept cyclically
    with a working set ~2x the cache (thrashes); lut: small, resident."""

    name = "mixed"
    cycles_per_ref = 10.0

    def _declare(self):
        self.symbols.declare("stream", 4 << 20)
        self.symbols.declare("hot_grid", 256 * 1024)  # 2x the 128K cache
        self.symbols.declare("lut", 16 * 1024)

    def _generate(self):
        stream = self.symbols["stream"]
        grid = self.symbols["hot_grid"]
        lut = self.symbols["lut"]
        cur = 0
        for _ in range(12):
            offsets = (
                np.uint64(cur)
                + np.arange(0, 64 * 4000, 64, dtype=np.uint64)
            ) % np.uint64(stream.size)
            yield self.block(np.uint64(stream.base) + offsets, label="stream")
            cur = (cur + 64 * 4000) % stream.size
            grid_sweep = np.arange(grid.base, grid.end, 64, dtype=np.uint64)
            yield self.block(np.tile(grid_sweep, 2), label="grid")
            lut_hits = np.arange(lut.base, lut.end, 64, dtype=np.uint64)
            yield self.block(np.tile(lut_hits, 4), label="lut")


def main() -> None:
    sim = Simulator(CACHE, seed=33)
    base = sim.run(MixedKernel(seed=33))
    interval = base.stats.app_cycles // 40
    searched = sim.run(MixedKernel(seed=33), tool=NWaySearch(n=10, interval_cycles=interval))
    print("== step 1: who misses? (10-way search) ==")
    print(searched.measured.table(k=3))

    # A reference sample for reuse/conflict analysis: one generator pass.
    sample = np.concatenate([b.addrs for b in MixedKernel(seed=33).blocks()])[:400_000]
    wl = MixedKernel(seed=33)
    wl.prepare()

    print("\n== step 2: why do they miss? ==")
    miss_sample = sample  # conflicts tolerate any representative sample
    conflicts = analyse_conflicts(miss_sample, wl.object_map, CACHE)
    diagnoses = advise(base.actual, sample, wl.object_map, CACHE, conflicts)
    print(advice_table(diagnoses))

    print("\n== step 3: would a bigger cache help? ==")
    sizes = [32 * 1024, 64 * 1024, 128 * 1024, 256 * 1024, 512 * 1024, 1 << 20]
    curve = mrc_from_addrs(sample).curve(sizes)
    print(
        hbar_chart(
            [fmt_bytes(s) for s in sizes],
            {"miss ratio": [curve[s] for s in sizes]},
            unit="",
            title="predicted miss ratio vs cache size (fully-assoc LRU)",
        )
    )
    knee = next((s for s in sizes if curve[s] < curve[sizes[0]] * 0.5), None)
    if knee:
        print(f"\nthe curve knees at ~{fmt_bytes(knee)}: that is hot_grid "
              "starting to fit — tiling it to the current cache gets the "
              "same win without new hardware.")


if __name__ == "__main__":
    main()
