"""The run loop both session types share.

``SimulationSession.run`` and ``MultiCoreSession.run`` are one loop: the
same fused-path check, ``max_steps`` limit, checkpoint cadence checks
and return value (``finished``). Every contract here is checked on a
single-core session and on a 1-core and a 2-core multi-core session.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.errors import SimulationError
from repro.sim import MultiCoreSession, Simulator
from repro.workloads.registry import make_workload

LLC = CacheConfig(size=64 * 1024, assoc=4)
SEED = 7


def compress(runner):
    return make_workload("compress", seed=SEED, **runner.workload_kwargs("compress"))


SESSIONS = {
    "single": lambda r: Simulator(LLC, seed=SEED).start_session(compress(r)),
    "multi-1": lambda r: MultiCoreSession.start(
        [compress(r)], llc_config=LLC, seed=SEED
    ),
    "multi-2": lambda r: MultiCoreSession.start(
        [compress(r), compress(r)], llc_config=LLC, seed=SEED
    ),
}


@pytest.fixture(params=sorted(SESSIONS))
def session(request, quick_runner):
    return SESSIONS[request.param](quick_runner)


class TestRunLoopContract:
    def test_zero_steps_advance_nothing(self, session):
        assert session.run(max_steps=0) is False
        assert session.app_refs == 0
        assert not session.finished

    def test_returns_finished(self, session):
        assert session.run(max_steps=2) is False
        assert session.app_refs > 0
        assert session.run() is True
        assert session.finished

    @pytest.mark.parametrize("cadence", [0, -5])
    def test_non_positive_cadence_refused(self, session, cadence):
        snaps = []
        with pytest.raises(SimulationError, match="checkpoint_every_refs"):
            session.run(checkpoint_every_refs=cadence, on_checkpoint=snaps.append)
        assert snaps == []
        assert session.app_refs == 0

    def test_cadence_without_callback_refused(self, session):
        with pytest.raises(SimulationError, match="on_checkpoint"):
            session.run(checkpoint_every_refs=10_000)
        assert session.app_refs == 0

    def test_cadence_takes_checkpoints_on_schedule(self, session):
        snaps = []
        assert session.run(checkpoint_every_refs=50_000, on_checkpoint=snaps.append)
        totals = [0] + [sum(c.stats.app_refs for c in snap.cores) for snap in snaps]
        assert len(totals) > 2
        assert all(b - a >= 50_000 for a, b in zip(totals, totals[1:]))
