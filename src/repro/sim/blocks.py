"""Reference blocks: the unit of work flowing from workloads to the engine.

A block is a chunk of consecutive memory references produced by a
workload's kernel — addresses plus the virtual-cycle cost of executing
them. Blocks are NumPy-native so the cache models and counter windows can
stay vectorised; per the hpc-parallel guides, no per-reference Python
objects ever exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


@dataclass
class ReferenceBlock:
    """A chunk of memory references with a cycle cost.

    ``cycles_per_ref`` models the non-memory instructions executed around
    each reference (address arithmetic, floating point, branches): the
    paper's simulator counts those via basic-block instrumentation, and the
    per-application values are what produce its very different
    misses-per-million-cycles rates (mgrid 6,827 vs ijpeg 144).
    """

    addrs: np.ndarray
    cycles_per_ref: float = 4.0
    writes: np.ndarray | None = None
    #: Optional phase label, used by analysis/Figure-5 style reporting.
    label: str = ""
    #: Extra one-off cycles charged when the block completes (loop setup,
    #: function call overhead).
    extra_cycles: int = 0

    def __post_init__(self) -> None:
        self.addrs = np.ascontiguousarray(self.addrs, dtype=np.uint64)
        if self.cycles_per_ref <= 0:
            raise WorkloadError("cycles_per_ref must be positive")
        if self.writes is not None:
            self.writes = np.ascontiguousarray(self.writes, dtype=bool)
            if len(self.writes) != len(self.addrs):
                raise WorkloadError("writes mask length mismatch")

    def __len__(self) -> int:
        return len(self.addrs)

    def ref_cycles(self, k: int) -> int:
        """Cycles of the block's first ``k`` references: ``int(k × cycles_per_ref)``.

        The one cost rule of the clock. Charging references *p* to *p+n*
        as ``ref_cycles(p + n) - ref_cycles(p)`` telescopes, so a block
        costs the same however its references are cut into chunks.
        """
        return int(k * self.cycles_per_ref)

    @property
    def total_cycles(self) -> int:
        """The whole block: every reference plus its ``extra_cycles``."""
        return self.ref_cycles(len(self.addrs)) + self.extra_cycles

    def refs_within_cycles(self, budget: int, pos: int = 0) -> int:
        """References to run from ``pos`` towards a deadline ``budget``
        cycles away: ``int(budget / cycles_per_ref)``, at least 1, and
        never past the reference whose cost reaches the deadline (a rate
        below one cycle per reference would otherwise run past it)."""
        target = self.ref_cycles(pos) + budget
        end = math.ceil(target / self.cycles_per_ref)
        while self.ref_cycles(end) < target:
            end += 1
        while self.ref_cycles(end - 1) >= target:
            end -= 1
        return min(max(1, int(budget / self.cycles_per_ref)), end - pos)
