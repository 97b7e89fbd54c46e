"""One-pass miss-ratio-curve construction over workload reference streams.

:func:`build_mrc` consumes a workload's reference stream (preferably a
compiled stream from :mod:`repro.workloads.compile`) exactly once and
returns an :class:`MrcResult` holding stack-distance histograms for the
aggregate stream *and* for every memory object the stream touches — the
per-object decomposition is this repo's angle on MRCs: the paper asks
"which object misses?", the MRC engine answers it for every cache size
at once. Two modes share the machinery:

* ``mode="exact"`` — the full Mattson pass (:mod:`.distances`); its
  fully-associative miss counts match the exact simulator bit-for-bit.
* ``mode="shards"`` — the SHARDS spatial sample (:mod:`.shards`):
  constant-space, linear-time, deterministic under a fixed seed, with
  per-object SHARDS-adj mass corrections against the exact per-object
  reference counts (which cost one vectorised attribution pass).

Miss ratios for set-associative geometries apply the binomial conflict
model (:mod:`.model`); ``assoc=None`` keeps the exact fully-associative
curve. :func:`select_verification_sizes` picks the sweep cells where the
predicted curve bends hardest — the cells worth spending the exact
simulator on (see ``repro mrc`` / EXPERIMENTS.md E12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.cache.mrc.distances import MrcError, lines_of, reuse_distances
from repro.cache.mrc.histogram import StackDistanceHistogram
from repro.cache.mrc.model import expected_miss_ratio, expected_misses
from repro.cache.mrc.shards import sample_mask, scale_distances

if TYPE_CHECKING:  # pragma: no cover
    from repro.memory.object_map import AttributionSnapshot
    from repro.workloads.base import Workload
    from repro.workloads.compile import CompiledStream

#: Recognised MRC construction modes.
MRC_MODES = ("exact", "shards")

#: Default SHARDS sampling rate (fraction of cache lines kept).
DEFAULT_SAMPLE_RATE = 0.05


@dataclass
class MrcResult:
    """Histograms from one MRC pass, queryable at any cache geometry.

    ``per_object`` maps object names (sorted) to histograms whose
    ``n_refs`` is the object's exact reference count, so per-object and
    aggregate ratios share one denominator convention. All query methods
    take a cache size in **bytes** and an optional associativity
    (``None`` = fully associative, exact for LRU).
    """

    workload: str
    mode: str
    sample_rate: float
    line_size: int
    n_refs: int
    #: References that survived the spatial sample (== n_refs for exact).
    sampled_refs: int
    aggregate: StackDistanceHistogram
    per_object: dict[str, StackDistanceHistogram] = field(default_factory=dict)

    def _capacity(self, size: int) -> int:
        lines = size // self.line_size
        if lines < 1:
            raise MrcError(
                f"cache size {size} smaller than one {self.line_size}B line"
            )
        return lines

    def _hist(self, name: str | None) -> StackDistanceHistogram:
        if name is None:
            return self.aggregate
        if name not in self.per_object:
            raise MrcError(
                f"no histogram for object {name!r} "
                f"(known: {', '.join(self.per_object) or 'none'})"
            )
        return self.per_object[name]

    def misses(
        self, size: int, assoc: int | None = None, name: str | None = None
    ) -> float:
        """Expected miss mass at ``size`` bytes (exact mode: exact count)."""
        return expected_misses(self._hist(name), self._capacity(size), assoc)

    def miss_ratio(
        self, size: int, assoc: int | None = None, name: str | None = None
    ) -> float:
        """Expected miss ratio at ``size`` bytes."""
        return expected_miss_ratio(self._hist(name), self._capacity(size), assoc)

    def curve(
        self,
        sizes: Iterable[int],
        assoc: int | None = None,
        name: str | None = None,
    ) -> dict[int, float]:
        """Miss ratio at each size, one dict from the single pass."""
        return {size: self.miss_ratio(size, assoc, name) for size in sizes}

    def object_names(self) -> list[str]:
        return list(self.per_object)


# ------------------------------------------------------------------- build

def _collect_addrs(
    workload: "Workload | None",
    compiled: "CompiledStream | None",
    max_refs: int | None,
) -> np.ndarray:
    if compiled is not None:
        blocks = compiled.iter_blocks()
    elif workload is not None:
        blocks = workload.blocks()
    else:
        raise MrcError("build_mrc needs a workload or a compiled stream")
    chunks: list[np.ndarray] = []
    total = 0
    for block in blocks:
        chunks.append(block.addrs)
        total += len(block.addrs)
        if max_refs is not None and total >= max_refs:
            break
    if not chunks:
        return np.empty(0, dtype=np.uint64)
    addrs = np.concatenate(chunks)
    return addrs[:max_refs] if max_refs is not None else addrs


def mrc_from_addrs(
    addrs: np.ndarray,
    *,
    snapshot: "AttributionSnapshot | None" = None,
    workload_name: str = "",
    mode: str = "exact",
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    seed: int | None = None,
    line_size: int = 64,
) -> MrcResult:
    """The MRC pass over a raw address array.

    ``snapshot`` (an :class:`AttributionSnapshot`) enables the per-object
    decomposition; without it only the aggregate histogram is built.
    """
    if mode not in MRC_MODES:
        raise MrcError(
            f"unknown MRC mode {mode!r}; available: {', '.join(MRC_MODES)}"
        )
    addrs = np.asarray(addrs, dtype=np.uint64)
    codes = lines_of(addrs, line_size)
    n = len(codes)

    if mode == "exact" or sample_rate == 1.0:
        mode = "exact"
        sample_rate = 1.0
        kept = np.ones(n, dtype=bool)
        weight = 1.0
        distances = reuse_distances(codes)
    else:
        kept = sample_mask(codes, sample_rate, seed)
        if n and not kept.any():
            raise MrcError(
                f"SHARDS rate {sample_rate} sampled no lines from "
                f"{n} references; raise the rate"
            )
        weight = 1.0 / sample_rate
        distances = scale_distances(
            reuse_distances(codes[kept]), sample_rate
        )

    aggregate = StackDistanceHistogram.from_distances(
        distances, weight=weight, n_refs=n, line_size=line_size
    )
    if mode == "shards":
        aggregate.adjust_mass(n)

    per_object: dict[str, StackDistanceHistogram] = {}
    if snapshot is not None and len(snapshot.objects):
        obj_idx = snapshot.attribute(addrs)
        true_counts = np.bincount(
            obj_idx[obj_idx >= 0], minlength=len(snapshot.objects)
        )
        kept_idx = obj_idx[kept]
        by_name: dict[str, StackDistanceHistogram] = {}
        for i in np.unique(kept_idx[kept_idx >= 0]):
            hist = StackDistanceHistogram.from_distances(
                distances[kept_idx == i],
                weight=weight,
                n_refs=int(true_counts[i]),
                line_size=line_size,
            )
            if mode == "shards":
                hist.adjust_mass(int(true_counts[i]))
            by_name[snapshot.objects[i].name] = hist
        per_object = {name: by_name[name] for name in sorted(by_name)}

    return MrcResult(
        workload=workload_name,
        mode=mode,
        sample_rate=sample_rate,
        line_size=line_size,
        n_refs=n,
        sampled_refs=int(kept.sum()),
        aggregate=aggregate,
        per_object=per_object,
    )


def build_mrc(
    workload: "Workload",
    *,
    compiled: "CompiledStream | None" = None,
    mode: str = "exact",
    sample_rate: float = DEFAULT_SAMPLE_RATE,
    seed: int | None = None,
    max_refs: int | None = None,
    line_size: int = 64,
) -> MrcResult:
    """One MRC pass over ``workload``'s reference stream.

    ``compiled`` replays a :class:`CompiledStream` instead of the
    generator (bit-identical addresses, no per-block Python); the
    workload instance still provides the object map for per-object
    attribution. ``max_refs`` truncates the stream — the same truncation
    the simulator applies under its own ``max_refs``, which is what
    keeps differential comparisons aligned.
    """
    addrs = _collect_addrs(workload, compiled, max_refs)
    workload.prepare()
    result = mrc_from_addrs(
        addrs,
        snapshot=workload.object_map.snapshot(),
        workload_name=workload.name,
        mode=mode,
        sample_rate=sample_rate,
        seed=seed,
        line_size=line_size,
    )
    if workload.consumed:
        workload.reset()
    return result


# ------------------------------------------------------- verification cells

def select_verification_sizes(
    curve: dict[int, float], k: int = 2
) -> list[int]:
    """The ``k`` sweep sizes where the predicted curve bends hardest.

    Curvature is the second divided difference of miss ratio over
    log2(size) — the knees of the curve, where the analytical model is
    least trustworthy and an exact simulator cell buys the most
    confidence. Endpoints qualify only when there are too few interior
    points; returned sizes are sorted ascending.
    """
    sizes = sorted(curve)
    if k <= 0:
        return []
    if len(sizes) <= 2 or k >= len(sizes):
        return sizes[:k] if len(sizes) <= 2 else sizes
    x = np.log2(np.asarray(sizes, dtype=np.float64))
    y = np.asarray([curve[s] for s in sizes], dtype=np.float64)
    h_lo = x[1:-1] - x[:-2]
    h_hi = x[2:] - x[1:-1]
    curvature = np.abs(
        (y[2:] - y[1:-1]) / h_hi - (y[1:-1] - y[:-2]) / h_lo
    )
    order = sorted(
        range(len(curvature)), key=lambda i: (-curvature[i], sizes[i + 1])
    )
    return sorted(sizes[i + 1] for i in order[:k])
