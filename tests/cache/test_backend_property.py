"""Property-based backend equivalence (satellite of the kernel refactor).

Hypothesis drives both kernels with arbitrary access streams, random
miss-budget cuts and write masks across every replacement policy and
associativity, shrinking any divergence to a minimal counterexample.
Complements tests/cache/test_backend_equivalence.py, which replays fixed
randomized workloads; this file lets hypothesis search the corner cases
(tiny sets, duplicate bursts, budget landing on a follower, ...). The
``reference`` cache runs on the checked kernel of
:mod:`tests.reference_oracle`, so every call also holds its leader walk
to the plain per-reference loop.

Each cache lifetime also draws where its lines live: low, around two
bases near 2**40 that differ only above bit 32 (a 32-bit cast of the
line numbers folds them onto each other, set for set), or near 2**57,
where float64 byte addresses cannot tell neighbouring lines apart. Lines
stay below 2**58, so 64-byte-line addresses stay below 2**64.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import CacheConfig
from repro.cache.kernels import KERNEL_BACKENDS
from repro.cache.policies import ReplacementPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.errors import SimulationError
from tests.reference_oracle import checked_reference_cache

LINE = 64


@st.composite
def short_chunk(draw):
    """Up to 200 lines drawn one by one, so hypothesis shrinks them."""
    lines = draw(st.lists(st.integers(0, 255), min_size=0, max_size=200))
    if draw(st.booleans()):
        writes = draw(
            st.lists(st.booleans(), min_size=len(lines), max_size=len(lines))
        )
    else:
        writes = None
    return lines, writes


@st.composite
def long_chunk(draw):
    """A seeded stream of up to 1,500 lines: long enough to cross the
    array kernel's first budget window (256 references) and to reach its
    scattered certified-hit pass (256 leaders or more). Each reference
    is one of a few hot lines or, at a drawn rate, any of 256, so the
    miss density, and with it the number of windows a budgeted call
    takes, varies."""
    n = draw(st.integers(257, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hot = rng.integers(0, draw(st.sampled_from([2, 4, 8, 256])), n)
    cold = rng.random(n) < draw(st.sampled_from([0.0, 0.01, 0.1]))
    lines = np.where(cold, rng.integers(0, 256, n), hot)
    repeat = rng.random(n) < draw(st.sampled_from([0.0, 0.5]))
    lines = np.repeat(lines, 1 + repeat.astype(int))[:n]
    writes = (rng.random(n) < 0.3).tolist() if draw(st.booleans()) else None
    return lines.tolist(), writes


@st.composite
def chunk_plans(draw):
    """A list of (lines, budget, writes) chunks for one cache lifetime."""
    n_chunks = draw(st.integers(1, 6))
    plans = []
    for _ in range(n_chunks):
        lines, writes = draw(st.one_of(short_chunk(), long_chunk()))
        budget = draw(st.one_of(st.none(), st.integers(1, 60)))
        plans.append((lines, budget, writes))
    return plans


def placed(lines, space):
    """Byte addresses of drawn lines (0-255) moved into a line space."""
    lines = np.asarray(lines, dtype=np.uint64)
    if space == "alias":
        # Lines l and l + 128 differ only in bit 33 (and stay in one set).
        lines = (
            np.uint64(1 << 40)
            + (lines & np.uint64(127))
            + ((lines >> np.uint64(7)) << np.uint64(33))
        )
    elif space == "high":
        lines = lines + np.uint64((1 << 57) + (1 << 56))
    return lines * np.uint64(LINE)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(list(ReplacementPolicy)),
    assoc=st.sampled_from([1, 2, 4, 8]),
    n_sets_pow=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    prefetch=st.booleans(),
    space=st.sampled_from(["low", "alias", "high"]),
    plans=chunk_plans(),
)
def test_array_matches_reference(
    policy, assoc, n_sets_pow, seed, prefetch, space, plans
):
    n_sets = 1 << n_sets_pow
    cfg = CacheConfig(
        size=LINE * assoc * n_sets, line_size=LINE, assoc=assoc, policy=policy
    )
    ref = checked_reference_cache(cfg, seed=seed, prefetch=prefetch)
    arr = SetAssociativeCache(
        cfg, seed=seed, prefetch_next_line=prefetch, backend="array"
    )
    for lines, budget, writes in plans:
        addrs = placed(lines, space)
        wmask = None if writes is None else np.asarray(writes, dtype=bool)
        pos = 0
        while True:
            sub_w = wmask[pos:] if wmask is not None else None
            ra = ref.access(addrs[pos:], miss_budget=budget, writes=sub_w)
            rb = arr.access(addrs[pos:], miss_budget=budget, writes=sub_w)
            assert ra.consumed == rb.consumed
            assert np.array_equal(ra.miss_mask, rb.miss_mask)
            assert ref.stats.__dict__ == arr.stats.__dict__
            pos += ra.consumed
            if pos >= len(addrs) or ra.consumed == 0:
                break
    for set_idx in range(cfg.n_sets):
        assert ref.lines_in_set(set_idx) == arr.lines_in_set(set_idx)
    assert ref.dirty_line_count() == arr.dirty_line_count()


@pytest.mark.parametrize("backend", KERNEL_BACKENDS)
@pytest.mark.parametrize("budget", [0, -3])
@pytest.mark.parametrize("mechanism", [None, "vc"])
def test_budget_below_one_is_refused(backend, budget, mechanism):
    """A budget below 1 raises, naming the value, before any state moves."""
    from repro.cache.components import Pipeline, wrap_mechanisms

    cfg = CacheConfig(size=LINE * 4 * 16, line_size=LINE, assoc=4)
    leaf = SetAssociativeCache(cfg, backend=backend)
    cache = leaf if mechanism is None else wrap_mechanisms(leaf, mechanism)
    l1 = SetAssociativeCache(
        CacheConfig(size=LINE * 2 * 4, line_size=LINE, assoc=2), backend=backend
    )
    addrs = np.arange(1000, dtype=np.uint64) * np.uint64(LINE)
    for stack in (cache, Pipeline([l1, cache])):
        with pytest.raises(SimulationError, match=str(budget)):
            stack.access(addrs, miss_budget=budget)
    assert leaf.contents_line_count() == 0
    assert l1.contents_line_count() == 0
    assert leaf.stats.accesses == 0
