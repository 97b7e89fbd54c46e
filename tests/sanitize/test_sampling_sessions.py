"""Sanitized single-core sampling sessions on every backend.

The sampler arms a miss counter, so its sessions cut the stream into
miss-budgeted kernel calls, and ``backend="auto"`` switches to the
reference kernel once those calls keep being cut on a miss-dense stream
(its state, RNG included, transplanted mid-run). Under the runtime
sanitizer, every backend, replacement policy and mechanism stack must
give the same run on both sides of that switch, through a mid-run
snapshot and restore whose RNG replay checks the transplanted kernel.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.cache import CacheConfig, ReplacementPolicy
from repro.cache.kernels.auto import PROBE_CUT_CALLS
from repro.core.sampling import SamplingProfiler
from repro.sim.engine import Simulator
from repro.sim.session import SimulationSession
from repro.workloads.synthetic import SyntheticStreams

BACKENDS = ("reference", "array", "auto")
STACKS = ((), "vc", "vc+sb")

#: Periods that cut nearly every kernel call (the switch side) and ones
#: that rarely cut any before the stream ends (the array side).
DENSE_PERIODS = st.integers(16, 64)
SPARSE_PERIODS = st.integers(20_000, 60_000)


@contextmanager
def sanitized():
    """The sanitizer on (as under ``REPRO_SANITIZE=1``), check counts
    from zero; the previous gate is put back afterwards."""
    was_active = sanitize.is_active()
    sanitize.reset_checks()
    sanitize.activate()
    try:
        yield sanitize
    finally:
        if not was_active:
            sanitize.deactivate()
        sanitize.reset_checks()


@pytest.fixture
def active():
    with sanitized() as gate:
        yield gate


def _workload(footprint_kib, seed):
    """Two arrays of ``footprint_kib`` KiB together, swept for 12 k
    references: far over a 16 KiB cache, every new line misses; within
    it, only the first round does."""
    half = footprint_kib * 512
    return SyntheticStreams(
        {"A": (half, 60), "B": (half, 40)},
        rounds=3,
        lines_per_round=4000,
        seed=seed,
    )


def _leaf_kernel(cache):
    while not hasattr(cache, "_kernel"):
        cache = cache.inner
    return cache._kernel


def _run(backend, policy, stack, period, footprint_kib, seed, restore_after):
    """One sampled run, snapshotted after ``restore_after`` steps and
    finished in a session restored from that snapshot (unless the stream
    ended first)."""
    config = CacheConfig(
        size=16 * 1024, assoc=4, policy=policy, backend=backend, mechanisms=stack
    )
    sim = Simulator(config, seed=seed)
    session = sim.start_session(
        _workload(footprint_kib, seed), tool=SamplingProfiler(period=period, seed=seed)
    )
    live = True
    for _ in range(restore_after):
        live = session.step()
        if not live:
            break
    if live:  # an exhausted session has nothing left to resume
        session = SimulationSession.restore(
            session.snapshot(), _workload(footprint_kib, seed)
        )
    while session.step():
        pass
    return session, session.finalize()


def _outcome(result):
    return (
        result.stats,
        result.actual.as_dict(),
        result.measured.as_dict(),
        [(label, stats.__dict__) for label, stats in result.component_stats],
    )


class TestSanitizedSamplingSessions:
    @settings(max_examples=25, deadline=None)
    @given(
        policy=st.sampled_from(list(ReplacementPolicy)),
        stack=st.sampled_from(STACKS),
        period=st.one_of(DENSE_PERIODS, SPARSE_PERIODS),
        footprint_kib=st.sampled_from([8, 256]),
        seed=st.integers(0, 2**16),
        restore_after=st.integers(0, 400),
    )
    def test_backends_agree_on_both_sides_of_the_switch(
        self, policy, stack, period, footprint_kib, seed, restore_after
    ):
        outcomes = {}
        with sanitized():
            for backend in BACKENDS:
                _, result = _run(
                    backend, policy, stack, period, footprint_kib, seed, restore_after
                )
                outcomes[backend] = _outcome(result)
        assert outcomes["array"] == outcomes["reference"]
        assert outcomes["auto"] == outcomes["reference"]

    @pytest.mark.parametrize(
        "policy", list(ReplacementPolicy), ids=lambda p: p.value
    )
    def test_restore_after_the_transplant_replays_the_rng(self, active, policy):
        """A session snapshotted just after ``auto`` switched resumes on
        the reference kernel, passes the RNG replay and finishes like a
        ``reference`` run."""
        config = CacheConfig(size=16 * 1024, assoc=4, policy=policy, backend="auto")
        session = Simulator(config, seed=5).start_session(
            _workload(256, 5), tool=SamplingProfiler(period=24, seed=5)
        )
        kernel = _leaf_kernel(session.cache)
        while kernel._inner.name == "array":
            assert session.step()
        assert kernel._cut_calls == PROBE_CUT_CALLS
        restored = SimulationSession.restore(session.snapshot(), _workload(256, 5))
        assert active.checks_run()["rng.replay"] >= 1
        assert _leaf_kernel(restored.cache)._inner.name == "reference"
        while restored.step():
            pass
        _, want = _run("reference", policy, (), 24, 256, 5, 0)
        assert _outcome(restored.finalize()) == _outcome(want)

    def test_sparse_period_keeps_the_array_kernel(self, active):
        session, _ = _run(
            "auto", ReplacementPolicy.LRU, (), 40_000, 256, 5, 0
        )
        assert _leaf_kernel(session.cache)._inner.name == "array"
