"""Cross-core contention ledgers for shared-level miss classification.

A multi-core session classifies every shared-LLC miss as *self* (the
core would miss even running alone — capacity/conflict within its own
footprint) or *contention* (induced by co-runners evicting its lines),
by replaying the core's post-L1 miss stream against a solo *shadow*
model of the shared level (same geometry, same replacement seed). The
:class:`ContentionLedger` is the running-total side of that split; the
per-object breakdown is built by
:class:`repro.sim.session.MultiCoreSession`, which attributes the
classified addresses through each core's object map.

Conservation identity (enforced by the runtime sanitizer at every
commit boundary): ``self_misses + contention_misses`` equals the port
ledger's total misses — classification never invents or drops a miss.
``rescued_misses`` counts the opposite sign (solo model missed, shared
level hit — a co-runner fetched the line for us); it is reported, not
part of the conservation sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ContentionLedger:
    """Running self/contention/rescued totals for one core's shared port."""

    self_misses: int = 0
    contention_misses: int = 0
    rescued_misses: int = 0
    #: Per-tag self/contention splits ("app" vs "instr"), merged key-wise
    #: like :class:`~repro.cache.base.CacheStats` tag dicts.
    self_by_tag: dict[str, int] = field(default_factory=dict)
    contention_by_tag: dict[str, int] = field(default_factory=dict)

    @property
    def classified_misses(self) -> int:
        """Total classified misses — must equal the port ledger's misses."""
        return self.self_misses + self.contention_misses

    def record(
        self, tag: str, self_misses: int, contention_misses: int, rescued: int
    ) -> None:
        """Fold one commit's staged classification into the totals."""
        self.self_misses += self_misses
        self.contention_misses += contention_misses
        self.rescued_misses += rescued
        self.self_by_tag[tag] = self.self_by_tag.get(tag, 0) + self_misses
        self.contention_by_tag[tag] = (
            self.contention_by_tag.get(tag, 0) + contention_misses
        )

    def merge(self, other: "ContentionLedger") -> "ContentionLedger":
        """Add ``other``'s totals into this ledger (returns ``self``);
        per-tag dicts are merged key-wise, as in ``CacheStats.merge``."""
        self.self_misses += other.self_misses
        self.contention_misses += other.contention_misses
        self.rescued_misses += other.rescued_misses
        for tag, n in other.self_by_tag.items():
            self.self_by_tag[tag] = self.self_by_tag.get(tag, 0) + n
        for tag, n in other.contention_by_tag.items():
            self.contention_by_tag[tag] = self.contention_by_tag.get(tag, 0) + n
        return self

    def snapshot(self) -> "ContentionLedger":
        """An independent copy of the current totals."""
        return ContentionLedger().merge(self)


@dataclass
class ContentionProfile:
    """Finalized per-core contention report surfaced on ``RunResult``.

    ``self_by_object`` / ``contention_by_object`` map object names (in
    the core's own namespace) to classified shared-level miss counts;
    addresses outside any mapped object (instrumentation references,
    stack slop) land in ``unattributed_self`` /
    ``unattributed_contention`` so the per-object rows plus the
    unattributed remainder always sum exactly to the ledger totals.
    """

    ledger: ContentionLedger
    self_by_object: dict[str, int] = field(default_factory=dict)
    contention_by_object: dict[str, int] = field(default_factory=dict)
    unattributed_self: int = 0
    unattributed_contention: int = 0

    @property
    def self_misses(self) -> int:
        return self.ledger.self_misses

    @property
    def contention_misses(self) -> int:
        return self.ledger.contention_misses

    @property
    def rescued_misses(self) -> int:
        return self.ledger.rescued_misses

    @property
    def total_shared_misses(self) -> int:
        return self.ledger.classified_misses

    @property
    def contention_share(self) -> float:
        """Fraction of this core's shared-level misses induced by co-runners."""
        total = self.total_shared_misses
        return self.contention_misses / total if total else 0.0

    def top_contended(self, n: int = 10) -> list[tuple[str, int]]:
        """Objects ranked by contention misses, largest first."""
        ranked = sorted(
            self.contention_by_object.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:n]
