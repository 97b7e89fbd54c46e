"""CacheStats conservation and chain-identity checks.

The ledger model (DESIGN.md sections 7 and 12): all counter movement
goes through ``CacheStats.record``, so at any commit boundary the totals
must be *conserved* — aggregate counters equal their per-tag
decompositions — and, across a decorated component stack, the mechanism
ledgers must *chain*: every inner-component miss is exactly one probe of
the decorator that wraps it, every rescued miss is a hit in that
decorator's ledger, and pipeline levels record the same access totals.

These identities are checked on **running totals** at every
``commit_stage``, so a drifting ledger is caught at the first commit
after the drift, with the component stack still in the failing state.

The checks are duck-typed on purpose: this module must not import
:mod:`repro.cache` (the cache layer imports *us* at its commit hooks),
and the structural attributes (``inner``/``kind``, ``levels``) are the
decorator/pipeline contract being verified.
"""

from __future__ import annotations

from repro.sanitize import SanitizerError, count_check

__all__ = ["check_stats", "check_component"]


def check_stats(stats: object, label: str = "cache") -> None:
    """Conservation identities on one :class:`CacheStats` ledger."""
    count_check("ledger.conservation")
    accesses = stats.accesses
    misses = stats.misses
    tag_accesses = sum(stats.accesses_by_tag.values())
    tag_misses = sum(stats.misses_by_tag.values())
    if accesses != tag_accesses:
        raise SanitizerError(
            f"[{label}] accesses total {accesses} != per-tag sum "
            f"{tag_accesses} ({dict(stats.accesses_by_tag)})"
        )
    if misses != tag_misses:
        raise SanitizerError(
            f"[{label}] misses total {misses} != per-tag sum "
            f"{tag_misses} ({dict(stats.misses_by_tag)})"
        )
    if not 0 <= misses <= accesses:
        raise SanitizerError(
            f"[{label}] misses {misses} outside [0, accesses={accesses}]"
        )
    if stats.writebacks < 0 or stats.prefetches < 0:
        raise SanitizerError(
            f"[{label}] negative writebacks ({stats.writebacks}) or "
            f"prefetches ({stats.prefetches})"
        )


def _check_decorator(component: object, label: str) -> None:
    """Chain identities between a mechanism decorator and its inner."""
    count_check("ledger.chain")
    kind = component.kind
    outer = component.stats
    inner = component.inner.stats
    mech = outer.mechanism
    probes = mech.get(f"{kind}_probes", 0)
    hits = mech.get(f"{kind}_hits", 0)
    if outer.accesses != inner.accesses:
        raise SanitizerError(
            f"[{label}] decorator saw {outer.accesses} accesses but its "
            f"inner component recorded {inner.accesses}"
        )
    if probes != inner.misses:
        raise SanitizerError(
            f"[{label}] {kind}_probes {probes} != inner misses "
            f"{inner.misses}: every inner miss must probe the "
            "mechanism exactly once"
        )
    if outer.misses != probes - hits:
        raise SanitizerError(
            f"[{label}] post-mechanism misses {outer.misses} != probes "
            f"{probes} - hits {hits}: rescued misses don't balance"
        )
    if kind == "sb" and hits > mech.get("sb_prefetches", 0):
        raise SanitizerError(
            f"[{label}] sb_hits {hits} exceed sb_prefetches "
            f"{mech.get('sb_prefetches', 0)}: a stream buffer rescued a "
            "line it never prefetched"
        )


def _check_pipeline(component: object, label: str) -> None:
    """Level identities of a filtering pipeline."""
    count_check("ledger.pipeline")
    levels = component.levels
    if component.stats is not levels[-1].stats:
        raise SanitizerError(
            f"[{label}] pipeline stats is not the last level's ledger "
            "object: the shared-ledger contract broke"
        )
    first = levels[0].stats.accesses
    prev_misses = None
    for i, level in enumerate(levels):
        if level.stats.accesses != first:
            raise SanitizerError(
                f"[{label}] level {i + 1} recorded "
                f"{level.stats.accesses} accesses, level 1 recorded "
                f"{first}: levels must agree per consumed reference"
            )
        if prev_misses is not None and level.stats.misses > prev_misses:
            raise SanitizerError(
                f"[{label}] level {i + 1} misses {level.stats.misses} "
                f"exceed level {i}'s {prev_misses}: a filtering level "
                "cannot create references"
            )
        prev_misses = level.stats.misses


def _check_shared_port(component: object, label: str) -> None:
    """Multi-writer identities of a shared-level port.

    Two families: (a) the *contention conservation* identity — every
    port miss is classified exactly one way, so self + contention equals
    the port ledger's misses, in total and per tag; (b) the *aggregate
    sum* identity — the shared leaf's ledger equals the element-wise sum
    of every port's ledger, per counter and per tag, because each port
    records its own share into the aggregate when it commits (one leaf
    call may serve several ports on the fused multi-core path).
    """
    count_check("ledger.shared_port")
    port_stats = component.stats
    contention = component.contention
    if contention.classified_misses != port_stats.misses:
        raise SanitizerError(
            f"[{label}] classified misses (self {contention.self_misses} + "
            f"contention {contention.contention_misses}) != port misses "
            f"{port_stats.misses}: classification dropped or invented a miss"
        )
    for tag, misses in port_stats.misses_by_tag.items():
        classified = contention.self_by_tag.get(
            tag, 0
        ) + contention.contention_by_tag.get(tag, 0)
        if classified != misses:
            raise SanitizerError(
                f"[{label}] tag {tag!r}: classified {classified} != port "
                f"misses {misses}"
            )
    shared = component.shared_level
    aggregate = shared.stats
    ports = shared.ports
    for counter in ("accesses", "misses", "writebacks", "prefetches"):
        total = sum(getattr(p.stats, counter) for p in ports)
        value = getattr(aggregate, counter)
        if value != total:
            raise SanitizerError(
                f"[{label}] aggregate {counter} {value} != sum over "
                f"{len(ports)} port ledgers {total}"
            )
    for attr in ("accesses_by_tag", "misses_by_tag"):
        agg_dict = getattr(aggregate, attr)
        tags = set(agg_dict)
        for p in ports:
            tags.update(getattr(p.stats, attr))
        for tag in tags:
            total = sum(getattr(p.stats, attr).get(tag, 0) for p in ports)
            if agg_dict.get(tag, 0) != total:
                raise SanitizerError(
                    f"[{label}] aggregate {attr}[{tag!r}] "
                    f"{agg_dict.get(tag, 0)} != port sum {total}"
                )


def check_component(component: object, label: str = "cache") -> None:
    """Verify one component and everything it wraps or contains."""
    check_stats(component.stats, label)
    inner = getattr(component, "inner", None)
    if inner is not None and hasattr(component, "kind"):
        _check_decorator(component, f"{label}.{component.kind}")
        check_component(inner, f"{label}.inner")
        return
    levels = getattr(component, "levels", None)
    if levels is not None:
        _check_pipeline(component, label)
        for i, level in enumerate(levels):
            check_component(level, f"{label}.l{i + 1}")
        return
    if getattr(component, "shared_level", None) is not None:
        _check_shared_port(component, label)
