"""Edge cases of the shared per-reference walk, against the plain loop.

The reference kernel steps only through the references that can change
state: writers, and references whose line differs from the one before
them in the call. The array kernel runs the same walk over set lists it
builds from its arrays on first touch and writes back at the end of the
call. Every test here runs a production kernel and the plain
per-reference loop of :mod:`tests.reference_oracle` on the same calls
and asserts the same result and the same full state after each call:
sets in order, dirty lines, eviction pool, draw count and RNG.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cache.kernels import ArrayKernel, make_kernel
from repro.cache.kernels.base import FIRST_WINDOW, budget_windows
from repro.cache.kernels.reference import _leaders
from repro.cache.policies import ReplacementPolicy
from tests.reference_oracle import (
    PlainReferenceKernel,
    assert_same_result,
    kernel_state,
)

POLICIES = list(ReplacementPolicy)
LRU = ReplacementPolicy.LRU
FIFO = ReplacementPolicy.FIFO
RANDOM = ReplacementPolicy.RANDOM

#: 16 sets of four 64-byte lines.
GEOMETRY = dict(n_sets=16, assoc=4, line_bits=6)


def _pair(policy=LRU, seed=7, backend="reference", **geometry):
    kwargs = {**GEOMETRY, **geometry, "policy": policy, "seed": seed}
    return make_kernel(backend, **kwargs), PlainReferenceKernel(**kwargs)


def _state(kernel):
    """:func:`kernel_state` of a list-state kernel, or the same view of
    the array kernel's arrays (whose dirty count must match its bits)."""
    if not isinstance(kernel, ArrayKernel):
        return kernel_state(kernel)
    dirty_bits = kernel._dirty2d != 0
    assert kernel._n_dirty == int(dirty_bits.sum())
    return (
        [kernel.lines_in_set(s_idx) for s_idx in range(kernel.n_sets)],
        set(kernel._tags2d[dirty_bits].tolist()),
        kernel._rand_pool,
        kernel._rand_draws,
        kernel._rng.bit_generator.state,
    )


def _call(walk, plain, lines, budget=None, writes=None):
    """One call on both kernels; asserts equal results and state."""
    addrs = np.asarray(lines, dtype=np.uint64) << np.uint64(6)
    mask = None if writes is None else np.asarray(writes, dtype=bool)
    got = walk.access(addrs, budget, mask)
    want = plain.access(addrs, budget, mask)
    assert_same_result(got, want)
    assert _state(walk) == kernel_state(plain)
    return got


def _hot_run(n, hot=(0, 1, 2, 3), seed=1):
    """``n`` references to resident lines, each line repeated 1-3 times
    in a row (followers)."""
    rng = np.random.default_rng(seed)
    out: list[int] = []
    while len(out) < n:
        out += [int(rng.choice(hot))] * int(rng.integers(1, 4))
    return out[:n]


def test_leaders_are_line_changes_and_writers():
    window = np.array([7, 7, 9, 9, 9, 4], dtype=np.uint64)
    writes = np.array([0, 0, 0, 1, 0, 0], dtype=bool)
    # The window's first reference repeats the line before the window.
    assert _leaders(window, 256, 7, writes) == [258, 259, 261]
    assert _leaders(window, 256, 5, None) == [256, 258, 261]
    assert _leaders(window, 0, None, None) == [0, 2, 5]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_writing_follower_after_the_cut_leader_is_not_applied(policy):
    walk, plain = _pair(policy)
    _call(walk, plain, [0, 1, 2, 3])  # resident, clean
    cold = 1000  # set 8, never seen
    lines = _hot_run(300)
    lines[200:202] = [cold, cold]
    writes = [False] * 300
    writes[201] = True  # the follower of the budget's only miss writes
    got = _call(walk, plain, lines, budget=1, writes=writes)
    assert got.consumed == 201
    assert walk.contains_line(cold)
    assert cold not in walk._dirty
    # The next call starts at the follower: now it is applied.
    _call(walk, plain, lines[201:], budget=1, writes=writes[201:])
    assert cold in walk._dirty


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_follower_writes_show_up_as_writebacks(policy):
    walk, plain = _pair(policy)
    lines = [5, 5] + _hot_run(300)
    writes = [False, True] + [False] * 300  # only the follower writes
    _call(walk, plain, lines, writes=writes)
    assert 5 in walk._dirty
    # Twenty more lines of set 5 evict line 5 under every policy here.
    evict = [5 + 16 * k for k in range(1, 21)]
    got = _call(walk, plain, _hot_run(300) + evict)
    assert got.writebacks == 1
    assert 5 not in walk._dirty


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_window_boundary_compares_with_the_previous_window(policy):
    budget = 50  # first window max(256, 200) = 256, then 512
    assert list(budget_windows(1000, budget))[:2] == [(0, 256), (256, 768)]
    walk, plain = _pair(policy)
    _call(walk, plain, [0, 1, 2, 3])
    # The second window opens on a follower of the first one's last
    # reference, and on a writing one.
    for write_first in (False, True):
        lines = _hot_run(1000, seed=2)
        lines[254:257] = [40, 40, 40]  # a miss, then two followers
        writes = [False] * 1000
        writes[256] = write_first
        _call(walk, plain, lines, budget=budget, writes=writes)
        assert (40 in walk._dirty) == write_first
    # The second window opens on a new line that is also the window's
    # last: it must miss, though it repeats a line of its own window.
    lines = _hot_run(768, seed=3)
    lines[255], lines[256], lines[767] = 3, 77, 77
    got = _call(walk, plain, lines, budget=budget)
    assert got.miss_mask[256]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("delta", [-1, 1], ids=["under", "over"])
def test_windows_one_under_and_one_over_the_first_window(policy, delta):
    n = FIRST_WINDOW + delta
    walk, plain = _pair(policy)
    _call(walk, plain, [0, 1, 2, 3])
    # Unbudgeted: one window of n, whose last reference is a miss.
    lines = _hot_run(n, seed=4)
    lines[-1] = 900
    got = _call(walk, plain, lines)
    assert got.misses == 1 and got.miss_mask[-1]
    # Budgeted: a full first window, then a last one of n references
    # that opens and closes on misses.
    lines = _hot_run(FIRST_WINDOW + n, seed=5)
    lines[FIRST_WINDOW], lines[-1] = 901, 902
    windows = list(budget_windows(len(lines), 5))
    assert [hi - lo for lo, hi in windows] == [FIRST_WINDOW, n]
    got = _call(walk, plain, lines, budget=5)
    assert got.consumed == len(lines)
    assert got.miss_mask[FIRST_WINDOW] and got.miss_mask[-1]


def test_random_pool_and_draws_after_cut_calls():
    walk, plain = _pair(RANDOM, seed=11)
    rng = np.random.default_rng(6)
    lines = np.repeat(rng.integers(0, 512, 40_000), 1 + (rng.random(40_000) < 0.6))
    pos = cut = refills = 0
    for _ in range(40):
        offered = lines[pos : pos + 3000].tolist()
        draws = walk._rand_draws
        got = _call(walk, plain, offered, budget=20)
        # The pool is keyed on the 3,000 offered references, not on the
        # references the call consumed or the leaders it walked.
        assert walk._rand_draws - draws in (0, 2 * len(offered))
        refills += walk._rand_draws > draws
        cut += got.consumed < len(offered)
        pos += got.consumed
    assert cut == 40
    assert refills > 30


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("assoc", [1, 2])
def test_prefetching_one_set_cache(policy, assoc):
    """A prefetch fill lands in the set it just filled: at one way it
    evicts the line, at two ways it demotes it under LRU, so a follower
    is no certain hit there."""
    walk, plain = _pair(policy, n_sets=1, assoc=assoc, prefetch_next_line=True)
    lines = np.repeat(np.arange(0, 600, 3), 2).tolist()  # pairs: miss, follower
    got = _call(walk, plain, lines)
    assert got.prefetches > 0
    if assoc == 1:
        assert got.miss_mask.all()  # every follower's line was evicted
    elif policy is LRU:
        assert walk.lines_in_set(0) == [598, 597]  # the follower promoted
    _call(walk, plain, lines, budget=7)


# ------------------------------------------- the array kernel's set lists


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_array_prefetch_fills_a_set_no_reference_touched(policy):
    array, plain = _pair(policy, backend="array", prefetch_next_line=True)
    _call(array, plain, [1 + 16 * k for k in range(4)], writes=[True] * 4)
    # Every reference of the next call maps to set 0, and each miss
    # prefetches its next line into set 1, full of dirty lines: set 1
    # is built for the prefetch fills alone, and written back.
    got = _call(array, plain, [16 * k for k in range(4, 8)])
    assert got.prefetches == 4
    assert got.writebacks >= 1


@pytest.mark.parametrize("policy", [LRU, FIFO], ids=lambda p: p.value)
def test_array_write_hit_and_miss_in_a_full_set_off_head_zero(policy):
    array, plain = _pair(policy, backend="array")
    # 80 distinct lines, five a set, are one guaranteed-miss run that
    # wraps every set once (RANDOM never batches misses, so its heads
    # stay at 0). Set 1 holds 17, 33, 49, 65 from physical slot 1 on.
    _call(array, plain, list(range(80)))
    assert array._head_np[1] == 1
    got = _call(array, plain, [33, 81], writes=[True, True])
    assert got.misses == 1
    # Four new lines of set 1 evict both lines the call made dirty.
    got = _call(array, plain, [97, 113, 129, 145])
    assert got.writebacks == 2


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_array_tail_writes_back_a_dirty_line_of_a_set_it_built(policy):
    array, plain = _pair(policy, backend="array")
    _call(array, plain, [0, 1, 2, 3])
    _call(array, plain, [5 + 16 * k for k in range(4)], writes=[True] * 4)
    # 40 references on 20 leaders: too few for a vectorised
    # phase, and a budget (never reached) keeps them from the rounds
    # tail, so the sequential tail builds set 5 and evicts from it.
    lines = _hot_run(32, seed=8) + [69, 85, 101, 117] + _hot_run(4, seed=9)
    with mock.patch.object(array, "_tail", wraps=array._tail) as tail:
        got = _call(array, plain, lines, budget=50)
    assert tail.called
    assert got.misses == 4
    assert got.writebacks >= 1


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_array_budget_cut_inside_the_tail_maps_back_to_the_chunk(policy):
    array, plain = _pair(policy, backend="array")
    _call(array, plain, [0, 1, 2, 3])
    lines = _hot_run(40, seed=10)
    lines[20:22] = [100, 100]  # a miss and its follower
    lines[30] = 200  # the budget's second miss
    # The tail walks the 17 leaders only, so the cut, just past leader
    # 13, must be mapped back to chunk position 31.
    with mock.patch.object(array, "_tail", wraps=array._tail) as tail:
        got = _call(array, plain, lines, budget=2)
    assert tail.called
    assert got.consumed == 31
    _call(array, plain, lines[31:], budget=2)
