"""Shared-level ledger identities under multiple writers.

The multi-core conservation contract: the shared leaf's aggregate
:class:`CacheStats` equals the element-wise sum of every port's ledger
(cores commit sequentially, so each leaf commit belongs to exactly one
port), and every port miss is classified exactly one way (self vs
contention). A hypothesis sweep proves it over random interleavings; the
injected-fault tests prove the ``REPRO_SANITIZE=1`` check actually fires
when a multi-core commit breaks either identity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.cache import CacheConfig, SetAssociativeCache
from repro.cache.components import SharedCacheLevel, VictimCache
from repro.errors import CacheConfigError
from repro.sanitize import SanitizerError
from repro.sanitize.ledger import check_component

pytestmark = pytest.mark.multicore

CFG = CacheConfig(size=4 * 1024, line_size=64, assoc=2)


def shared_with_ports(n_cores: int, seed: int = 11):
    shared = SharedCacheLevel(SetAssociativeCache(CFG, seed=seed))
    ports = [
        shared.port(i, SetAssociativeCache(CFG, seed=seed))
        for i in range(n_cores)
    ]
    return shared, ports


# One interleaving = a sequence of (core, tag, line numbers) chunks.
CHUNKS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["app", "instr"]),
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=24),
    ),
    min_size=1,
    max_size=40,
)


class TestConservationProperty:
    @settings(max_examples=40, deadline=None)
    @given(chunks=CHUNKS)
    def test_port_ledgers_sum_to_aggregate(self, chunks):
        shared, ports = shared_with_ports(3)
        for core, tag, lines in chunks:
            addrs = np.array(lines, dtype=np.uint64) * np.uint64(CFG.line_size)
            ports[core].access(addrs, tag=tag)
        for counter in ("accesses", "misses"):
            assert getattr(shared.stats, counter) == sum(
                getattr(p.stats, counter) for p in ports
            )
        for attr in ("accesses_by_tag", "misses_by_tag"):
            agg = getattr(shared.stats, attr)
            tags = set(agg).union(*(getattr(p.stats, attr) for p in ports))
            for tag in tags:
                assert agg.get(tag, 0) == sum(
                    getattr(p.stats, attr).get(tag, 0) for p in ports
                )
        for port in ports:
            assert port.contention.classified_misses == port.stats.misses
            # The full sanitizer walk agrees.
            check_component(port, f"c{port.core_id}")


@pytest.fixture
def sanitized():
    sanitize.activate()
    yield
    sanitize.deactivate()


class TestInjectedFaults:
    def test_phantom_leaf_commit_breaks_aggregate_sum(self, sanitized):
        shared, ports = shared_with_ports(2)
        addrs = np.arange(8, dtype=np.uint64) * np.uint64(64)
        ports[0].access(addrs)
        # A commit landing in the leaf without going through any port —
        # the multi-writer bug the aggregate-sum identity exists to catch.
        shared.leaf.stats.record("app", 4, 1)
        with pytest.raises(SanitizerError, match="aggregate"):
            ports[1].access(addrs)

    def test_dropped_classification_breaks_conservation(self, sanitized):
        shared, ports = shared_with_ports(2)
        addrs = np.arange(8, dtype=np.uint64) * np.uint64(64)
        ports[0].access(addrs)
        ports[0].contention.self_misses -= 1
        with pytest.raises(SanitizerError, match="classif"):
            ports[0].access(addrs)

    def test_conservation_check_counted(self, sanitized):
        _, ports = shared_with_ports(1)
        sanitize.reset_checks()
        ports[0].access(np.arange(4, dtype=np.uint64) * np.uint64(64))
        assert sanitize.checks_run().get("ledger.shared_port", 0) >= 1


class TestPortValidation:
    def test_shadow_geometry_must_match_leaf(self):
        shared = SharedCacheLevel(SetAssociativeCache(CFG, seed=1))
        other = CacheConfig(size=8 * 1024, line_size=64, assoc=2)
        with pytest.raises(CacheConfigError, match="shadow"):
            shared.port(0, SetAssociativeCache(other, seed=1))

    def test_scalar_path_refuses_decoration(self):
        """A decorator asks the component it wraps for per-miss victims;
        a port refuses, and a decorated port fails on first access."""
        _, ports = shared_with_ports(1)
        addrs = np.arange(4, dtype=np.uint64) * np.uint64(64)
        with pytest.raises(CacheConfigError, match="single-core"):
            ports[0]._chunk_access(addrs, victims=True)
        with pytest.raises(CacheConfigError, match="single-core"):
            VictimCache(ports[0]).access(addrs)
