"""Per-object tuning advice from a profile plus stream analysis.

The end of the tuning loop: given the paper's output ("object X causes
40% of your misses") and the reuse/conflict analyses, classify each hot
object's miss pattern and suggest the standard remedy:

* **STREAMING** — lines touched once and never re-used (reuse distance
  overwhelmingly cold/huge). Remedy: software prefetch, non-temporal
  stores, or algorithmic blocking to create reuse.
* **THRASHING** — re-use exists but at distances just beyond the cache
  (capacity misses). Remedy: tile/block the loop so the working set fits.
* **CONFLICTING** — misses concentrated in few sets while the object
  would otherwise fit. Remedy: pad or re-align against the objects it
  contends with.
* **RESIDENT** — low miss share; leave it alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.analysis.conflicts import ConflictReport
from repro.cache.config import CacheConfig
from repro.cache.mrc import COLD, lines_of, reuse_distances
from repro.core.profile import DataProfile
from repro.util.format import Table, render_table
from repro.util.units import fmt_pct


class DiagnosisKind(enum.Enum):
    STREAMING = "streaming"
    THRASHING = "thrashing"
    CONFLICTING = "conflicting"
    RESIDENT = "resident"


_REMEDIES = {
    DiagnosisKind.STREAMING: (
        "no reuse to exploit: consider software prefetch, non-temporal "
        "stores, or restructure the algorithm to create reuse (blocking)"
    ),
    DiagnosisKind.THRASHING: (
        "reuse exists but exceeds cache capacity: tile/block the loop so "
        "the per-pass working set fits the cache"
    ),
    DiagnosisKind.CONFLICTING: (
        "misses concentrate in few cache sets: pad or re-align this object "
        "against the arrays it shares sets with"
    ),
    DiagnosisKind.RESIDENT: "minor contributor: no action needed",
}


@dataclass
class Diagnosis:
    """One object's classification and remedy."""

    name: str
    share: float
    kind: DiagnosisKind
    detail: str

    @property
    def remedy(self) -> str:
        return _REMEDIES[self.kind]


def _classify_object(
    share: float,
    distances: np.ndarray,
    cache_lines: int,
    set_skew: float,
    minor_share: float,
) -> tuple[DiagnosisKind, str]:
    if share < minor_share:
        return DiagnosisKind.RESIDENT, f"only {fmt_pct(share)}% of misses"
    finite = distances[distances >= 0]
    cold_fraction = float((distances == COLD).sum()) / max(1, len(distances))
    if len(finite) == 0 or cold_fraction > 0.7:
        return (
            DiagnosisKind.STREAMING,
            f"{fmt_pct(cold_fraction)}% of its references are first touches",
        )
    over_capacity = float((finite >= cache_lines).sum()) / len(finite)
    if over_capacity > 0.5:
        return (
            DiagnosisKind.THRASHING,
            f"{fmt_pct(over_capacity)}% of reuses exceed the "
            f"{cache_lines}-line capacity",
        )
    if set_skew > 0.6:
        return (
            DiagnosisKind.CONFLICTING,
            f"set-pressure skew {set_skew:.2f} despite in-capacity reuse",
        )
    return (
        DiagnosisKind.STREAMING,
        "reuse too sparse to retain lines",
    )


def advise(
    profile: DataProfile,
    addrs: np.ndarray,
    object_map,
    config: CacheConfig,
    conflict_report: ConflictReport | None = None,
    top_k: int = 5,
    minor_share: float = 0.05,
) -> list[Diagnosis]:
    """Diagnose the profile's top objects from a reference sample.

    ``addrs`` is a representative slice of the *reference* stream (not
    just misses) so reuse distances are meaningful; per-object streams
    are extracted by attribution.
    """
    addrs = np.asarray(addrs, dtype=np.uint64)
    snapshot = object_map.snapshot()
    owner = snapshot.attribute(addrs)
    name_of = {i: o.name for i, o in enumerate(snapshot.objects)}
    cache_lines = config.n_lines
    skew = conflict_report.skew if conflict_report is not None else 0.0

    diagnoses: list[Diagnosis] = []
    for share in profile.top(top_k):
        idx = next(
            (i for i, nm in name_of.items() if nm == share.name), None
        )
        if idx is None:
            continue
        own_refs = addrs[owner == idx]
        if len(own_refs) == 0:
            continue
        distances = reuse_distances(lines_of(own_refs, config.line_size))
        kind, detail = _classify_object(
            share.share, distances, cache_lines, skew, minor_share
        )
        diagnoses.append(
            Diagnosis(name=share.name, share=share.share, kind=kind, detail=detail)
        )
    return diagnoses


def advice_table(diagnoses: list[Diagnosis]) -> str:
    t = Table(["object", "miss %", "pattern", "evidence", "remedy"],
              title="tuning advice")
    for d in diagnoses:
        t.add_row([d.name, fmt_pct(d.share), d.kind.value, d.detail, d.remedy])
    return render_table(t)
