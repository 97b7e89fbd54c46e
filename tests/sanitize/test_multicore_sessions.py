"""Sanitized multi-core sessions, restored mid-run.

Co-runners share one LLC through per-core ports; the runtime sanitizer
re-proves the port identities (every shared miss classified once, the
aggregate ledger equal to the sum of the ports) at every commit, and
replays each kernel's RNG draws after a restore. Hypothesis draws 1-3
compiled co-runners, their ratios, LRU or RANDOM at the private L1 and
at the shared LLC, and a fused or a stepped run. A stepped run carries
a sampler on core 0: its miss-budgeted calls reach the shared LLC, whose
``auto`` kernel switches to the reference kernel's leader walk once
``PROBE_CUT_CALLS`` of them are cut short. Each run is snapshotted
part-way, restored and finished under the sanitizer, and must report
exactly what an uninterrupted, unsanitized run reports; a run the fused
path admits also runs fused under the sanitizer, its port identities
re-proved after every window.
"""

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.cache import CacheConfig, ReplacementPolicy
from repro.cache.kernels.auto import PROBE_CUT_CALLS
from repro.core.sampling import SamplingProfiler
from repro.sim import MultiCoreSession
from tests.sanitize.test_sampling_sessions import sanitized
from tests.sim.test_multicore_session import FUSED_APPS, compiled_for

pytestmark = pytest.mark.multicore

POLICIES = (ReplacementPolicy.LRU, ReplacementPolicy.RANDOM)
SEED = 7


def _session(apps, ratios, l1_policy, llc_policy, chunk_size, period):
    session = MultiCoreSession.start(
        [FUSED_APPS[app]() for app in apps],
        llc_config=CacheConfig(
            size=16 * 1024, assoc=4, policy=llc_policy, backend="auto"
        ),
        l1_config=CacheConfig(
            size=4 * 1024, assoc=4, policy=l1_policy, backend="auto"
        ),
        seed=SEED,
        ratios=ratios,
        chunk_size=chunk_size,
        compiled=[compiled_for(app) for app in apps],
    )
    if period is not None:
        session.attach(SamplingProfiler(period=period, seed=SEED), core=0)
    return session


def _outcome(result) -> list:
    """Every per-core result and the shared LLC's ledger."""
    out = [result.stats, result.cache_stats]
    for core in result.cores:
        profile = core.contention
        out.append(
            (
                core.stats,
                core.cache_stats,
                core.component_stats,
                core.actual.table(),
                None if core.measured is None else core.measured.as_dict(),
                profile.ledger.snapshot(),
                profile.self_by_object,
                profile.contention_by_object,
                profile.unattributed_self,
                profile.unattributed_contention,
            )
        )
    return out


def _shared_kernel(session):
    return session.cores[0].port.shared_level.leaf._kernel


def _compress_sampled(period):
    return {
        "apps": ["compress"],
        "ratios": [1],
        "l1_policy": ReplacementPolicy.LRU,
        "llc_policy": ReplacementPolicy.LRU,
        "chunk_size": 200,
        "period": period,
    }


@st.composite
def grids(draw):
    n = draw(st.integers(1, 3))
    stepped = draw(st.booleans())
    return {
        "apps": draw(
            st.lists(st.sampled_from(sorted(FUSED_APPS)), min_size=n, max_size=n)
        ),
        "ratios": draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        "l1_policy": draw(st.sampled_from(POLICIES)),
        "llc_policy": draw(st.sampled_from(POLICIES)),
        "chunk_size": draw(st.integers(200, 2000)),
        "period": draw(st.integers(16, 64)) if stepped else None,
    }


class TestSanitizedMultiCoreSessions:
    @settings(max_examples=20, deadline=None)
    @given(grid=grids(), restore_at=st.floats(0.1, 0.9))
    @example(grid=_compress_sampled(16), restore_at=0.5)
    @example(grid=_compress_sampled(37), restore_at=0.5)
    def test_restored_run_equals_an_uninterrupted_one(self, grid, restore_at):
        stepped = grid["period"] is not None
        fusable = not stepped and ReplacementPolicy.RANDOM not in (
            grid["l1_policy"],
            grid["llc_policy"],
        )
        with mock.patch.object(
            MultiCoreSession,
            "_run_fused",
            autospec=True,
            side_effect=MultiCoreSession._run_fused,
        ) as fused:
            sanitize.deactivate()  # the reference run is unsanitized
            session = _session(**grid)
            session.run()
            want = _outcome(session.finalize())
            assert fused.call_count == fusable
            if stepped:
                # The sampler's cut calls move the shared LLC onto the
                # walk once PROBE_CUT_CALLS of them close its probe; a
                # run with fewer cut calls ends with the probe open.
                kernel = _shared_kernel(session)
                switched = kernel._cut_calls >= PROBE_CUT_CALLS
                assert kernel._decided == switched
                want_kernel = "reference" if switched else "array"
                assert kernel._inner.name == want_kernel

            total = session.app_refs
            with sanitized() as gate:
                if fusable:  # the fused windows, sanitized, uninterrupted
                    session = _session(**grid)
                    session.run()
                    assert _outcome(session.finalize()) == want
                session = _session(**grid)
                while session.app_refs < restore_at * total and session.step():
                    pass
                session = MultiCoreSession.restore(
                    session.snapshot(),
                    [FUSED_APPS[app]() for app in grid["apps"]],
                    compiled=[compiled_for(app) for app in grid["apps"]],
                )
                session.run()  # a restored session steps to the end
                got = _outcome(session.finalize())
                checks = gate.checks_run()
            assert fused.call_count == 2 * fusable
        assert got == want
        assert checks.get("ledger.shared_port", 0) > 0
        assert checks.get("rng.replay", 0) > 0

    @pytest.mark.parametrize(("period", "backend"), [(16, "reference"), (37, "array")])
    def test_only_cut_calls_close_the_shared_probe(self, period, backend):
        """Period 16 cuts 16 shared-LLC calls short and switches early; at
        period 37 most budgets run out on the last reference of a call,
        which is not a cut, so the probe stays open to the end."""
        session = _session(**_compress_sampled(period))
        session.run()
        kernel = _shared_kernel(session)
        assert kernel._inner.name == backend
        assert kernel._decided == (backend == "reference")
