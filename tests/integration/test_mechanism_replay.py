"""Differential replay of decorated stacks against a per-reference oracle.

Three contracts, each checked against registered SPEC workloads' actual
reference streams:

1. the oracle's leaf (``tests/mechanism_oracle.py``) reproduces the
   chunked reference kernel reference-for-reference, victims included,
   so the oracle is anchored to the kernel that defines the semantics;
2. every mechanism stack, on every kernel backend, posts the oracle's
   miss mask, budget cut points and component ledgers: LRU over the
   whole registry; FIFO and RANDOM with and without an L1, unsplit and
   budget-split, on compress and tomcatv;
3. a config with an *empty* mechanism stack builds and behaves exactly
   like today's undecorated cache.

Streams are the quick-mode workloads, capped, so the whole sweep stays
in tier-1 time.
"""

import dataclasses

import numpy as np
import pytest

from repro.cache import (
    CacheConfig,
    ReplacementPolicy,
    SetAssociativeCache,
    make_cache,
)
from repro.cache.kernels import KERNEL_BACKENDS
from repro.experiments.mechanisms import MECHANISM_CHOICES
from repro.experiments.runner import _QUICK_KWARGS
from repro.workloads.registry import make_workload, workload_names
from tests.mechanism_oracle import OracleLeaf, build_oracle, drive

pytestmark = pytest.mark.mechanisms

CFG = CacheConfig(size=32 * 1024, line_size=64, assoc=4)
L1 = CacheConfig(size=4 * 1024, line_size=64, assoc=2)
MAX_REFS = 120_000

#: Every CLI stack plus the reverse pairing (a VC outside the SBs).
STACKS = [*MECHANISM_CHOICES, "sb+vc"]

#: Stream cap and call size of the stack-vs-oracle matrix.
MATRIX_REFS = 12_000
CHUNK = 4096


def stream_of(app, max_refs=MAX_REFS):
    """(addrs, writes) of the quick workload's stream, capped."""
    workload = make_workload(app, seed=11, **_QUICK_KWARGS.get(app, {}))
    addrs, writes, total = [], [], 0
    for block in workload.blocks():
        addrs.append(block.addrs)
        writes.append(
            block.writes
            if block.writes is not None
            else np.zeros(len(block.addrs), dtype=bool)
        )
        total += len(block.addrs)
        if total >= max_refs:
            break
    return (
        np.concatenate(addrs)[:max_refs],
        np.concatenate(writes)[:max_refs],
    )


def oracle_leaf_replay(cfg, seed, addrs, writes):
    """Miss mask, victims (-1 = none) and committed oracle leaf."""
    leaf = OracleLeaf(cfg, seed)
    lines = (addrs >> np.uint64(cfg.line_bits)).tolist()
    mask = np.zeros(len(lines), dtype=bool)
    victims = []
    for i, (line, write) in enumerate(zip(lines, writes.tolist())):
        miss, evicted = leaf.line(line, write)
        if miss:
            mask[i] = True
            victims.append(-1 if evicted is None else evicted)
    leaf.commit("app", len(lines))
    return mask, victims, leaf


@pytest.mark.parametrize("app", workload_names())
def test_scalar_path_matches_chunked_kernel(app):
    addrs, writes = stream_of(app)
    mask, victims, leaf = oracle_leaf_replay(CFG, None, addrs, writes)
    plain = SetAssociativeCache(CFG, backend="reference")
    assert np.array_equal(plain.access(addrs, writes=writes).miss_mask, mask)
    chunked = SetAssociativeCache(CFG, backend="reference")
    res = chunked._chunk_access(addrs, writes=writes, victims=True)
    chunked.commit_stage("app", res.consumed)
    assert np.array_equal(res.miss_mask, mask)
    assert res.victims.tolist() == victims
    assert chunked.stats.__dict__ == leaf.stats.__dict__


def test_scalar_path_matches_chunked_kernel_random_policy():
    """RANDOM replacement: victim-reporting calls draw by the
    refill-on-empty rule, so however the stream is cut into calls the
    kernel matches the oracle's single pass, victims included."""
    addrs, writes = stream_of("compress")
    cfg = dataclasses.replace(CFG, policy=ReplacementPolicy.RANDOM)
    mask, victims, _ = oracle_leaf_replay(cfg, 42, addrs, writes)
    for backend in KERNEL_BACKENDS:
        cache = SetAssociativeCache(cfg, seed=42, backend=backend)
        masks, got = [], []
        for lo, hi in zip([0, 1, 5000, 7000, 50_000], [1, 5000, 7000, 50_000, None]):
            res = cache._chunk_access(
                addrs[lo:hi], writes=writes[lo:hi], victims=True
            )
            masks.append(res.miss_mask)
            got.extend(res.victims.tolist())
        assert np.array_equal(np.concatenate(masks), mask), backend
        assert got == victims, backend


def ledger_dicts(cache):
    return [(label, stats.__dict__) for label, stats in cache.component_ledgers()]


def assert_stacks_match_oracle(addrs, policy, l1, budget):
    """Every stack on every backend posts the oracle's masks, cut points
    and ledgers when driven in calls of at most ``CHUNK`` references."""
    cfg = dataclasses.replace(CFG, policy=policy)
    l1_cfg = None if l1 is None else dataclasses.replace(l1, policy=policy)
    for mech in STACKS:
        stack_cfg = dataclasses.replace(cfg, mechanisms=mech)
        oracle = build_oracle(stack_cfg, 3, l1_cfg)
        want_mask, want_cuts = drive(oracle, addrs, CHUNK, budget)
        want = ledger_dicts(oracle)
        for backend in KERNEL_BACKENDS:
            cache = make_cache(stack_cfg, seed=3, l1_config=l1_cfg, backend=backend)
            mask, cuts = drive(cache, addrs, CHUNK, budget)
            where = f"{mech} on {backend}"
            assert cuts == want_cuts, where
            assert np.array_equal(mask, want_mask), where
            assert ledger_dicts(cache) == want, where


@pytest.mark.parametrize("app", workload_names())
def test_stacks_match_oracle_lru(app):
    addrs, _ = stream_of(app, MATRIX_REFS)
    assert_stacks_match_oracle(addrs, ReplacementPolicy.LRU, None, None)


@pytest.mark.parametrize("budget", [None, 61], ids=["unsplit", "budget"])
@pytest.mark.parametrize("l1", [None, L1], ids=["no-l1", "l1"])
@pytest.mark.parametrize(
    "policy",
    [ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM],
    ids=lambda p: p.value,
)
@pytest.mark.parametrize("app", ["compress", "tomcatv"])
def test_stacks_match_oracle_policies(app, policy, l1, budget, monkeypatch):
    # Let `auto` settle within the stream, so RANDOM conflict streams
    # also cover its switch to the reference kernel mid-run.
    monkeypatch.setattr("repro.cache.kernels.auto.PROBE_REFS", 2048)
    addrs, _ = stream_of(app, MATRIX_REFS)
    assert_stacks_match_oracle(addrs, policy, l1, budget)


@pytest.mark.parametrize("app", workload_names())
def test_empty_mechanism_stack_is_bit_identical(app):
    addrs, writes = stream_of(app)
    plain = make_cache(CFG, seed=2)
    decorated = make_cache(
        dataclasses.replace(CFG, mechanisms=()), seed=2
    )
    assert type(decorated) is type(plain)
    a = plain.access(addrs, writes=writes)
    b = decorated.access(addrs, writes=writes)
    assert np.array_equal(a.miss_mask, b.miss_mask)
    assert plain.stats.__dict__ == decorated.stats.__dict__
