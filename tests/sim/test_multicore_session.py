"""MultiCoreSession: interleaving, bit-identity, contention attribution.

The refactor contract (DESIGN.md section 13): a 1-core
:class:`MultiCoreSession` is *bit-identical* to the single-core
:class:`SimulationSession` over the same workload and seeds, and in the
N-core case every shared-level miss is classified exactly one way (self
vs contention) with per-(core, object) counts that conserve against the
port ledgers.

The fused path (DESIGN.md section 9) must leave a compiled run exactly
as stepping it leaves it; ``while session.step()`` is the oracle.
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import sanitize
from repro.cache import CacheConfig
from repro.cache.components import SharedLevelPort
from repro.cache.policies import ReplacementPolicy
from repro.core.sampling import SamplingProfiler
from repro.errors import CacheConfigError, SimulationError
from repro.sanitize import SanitizerError
from repro.sim import CoreRateObserver, MultiCoreSession, Simulator
from repro.sim.blocks import ReferenceBlock
from repro.sim.session import SimulationSession
from repro.workloads.compile import compile_workload
from repro.workloads.registry import SPEC_WORKLOADS, make_workload
from repro.workloads.trace import TraceWorkload

pytestmark = pytest.mark.multicore

LLC = CacheConfig(size=64 * 1024, assoc=4)
L1 = CacheConfig(size=8 * 1024, assoc=4)
SEED = 7


def quick_workload(app: str, runner):
    return make_workload(app, seed=SEED, **runner.workload_kwargs(app))


def run_single(workload) -> object:
    return Simulator(LLC, l1_config=L1, seed=SEED).run(workload)


def run_multi(workloads, **kwargs):
    session = MultiCoreSession.start(
        workloads, llc_config=LLC, l1_config=L1, seed=SEED, **kwargs
    )
    session.run()
    return session.finalize()


class TestOneCoreBitIdentity:
    @pytest.mark.parametrize("app", sorted(SPEC_WORKLOADS))
    def test_every_registry_workload(self, app, quick_runner):
        single = run_single(quick_workload(app, quick_runner))
        multi = run_multi([quick_workload(app, quick_runner)])
        core = multi.cores[0]
        assert core.stats == single.stats
        assert core.actual.table() == single.actual.table()
        # Degenerate shadow: same seed and geometry as the leaf, so every
        # LLC miss classifies as self.
        assert core.contention.ledger.contention_misses == 0
        assert core.contention.ledger.rescued_misses == 0
        assert (
            core.contention.ledger.self_misses
            == core.cache_stats.misses
            == single.cache_stats.misses
        )

    @pytest.mark.parametrize("app", sorted(SPEC_WORKLOADS))
    def test_compiled_every_registry_workload(self, app, quick_runner):
        stream = compile_workload(quick_workload(app, quick_runner))
        single = Simulator(LLC, l1_config=L1, seed=SEED).run(
            quick_workload(app, quick_runner), compiled=stream
        )
        with spy_fused() as fused:
            multi = run_multi([quick_workload(app, quick_runner)], compiled=[stream])
        assert fused.call_count == 1
        core = multi.cores[0]
        assert core.stats == single.stats
        assert core.actual.table() == single.actual.table()
        assert core.component_stats == single.component_stats
        assert core.contention.ledger.self_misses == single.cache_stats.misses
        assert core.contention.ledger.contention_misses == 0

    def test_aggregate_equals_the_single_core(self, quick_runner):
        single = run_single(quick_workload("compress", quick_runner))
        multi = run_multi([quick_workload("compress", quick_runner)])
        assert multi.stats.app_refs == single.stats.app_refs
        assert multi.stats.app_misses == single.stats.app_misses
        assert multi.stats.app_cycles == single.stats.app_cycles
        assert multi.cache_stats.misses == single.cache_stats.misses


class TestContentionConservation:
    @pytest.fixture(scope="class")
    def duo(self, quick_runner):
        return run_multi(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ]
        )

    def test_per_core_objects_sum_to_ledger(self, duo):
        for core in duo.cores:
            profile = core.contention
            ledger = profile.ledger
            assert (
                sum(profile.self_by_object.values()) + profile.unattributed_self
                == ledger.self_misses
            )
            assert (
                sum(profile.contention_by_object.values())
                + profile.unattributed_contention
                == ledger.contention_misses
            )
            # Every port miss classified exactly one way.
            assert ledger.classified_misses == core.cache_stats.misses

    def test_cores_sum_to_shared_aggregate(self, duo):
        assert sum(c.cache_stats.misses for c in duo.cores) == (
            duo.cache_stats.misses
        )
        assert sum(c.cache_stats.accesses for c in duo.cores) == (
            duo.cache_stats.accesses
        )

    def test_namespaces_keep_objects_distinct(self, duo):
        names = set(duo.cores[0].contention.self_by_object) | set(
            duo.cores[1].contention.self_by_object
        )
        assert all(n.startswith(("c0:", "c1:")) for n in names)

    def test_makespan_and_merged_components(self, duo):
        assert duo.stats.app_cycles == max(
            c.stats.app_cycles for c in duo.cores
        )
        labels = [name for name, _ in duo.component_stats]
        assert labels[0] == "llc"
        assert "c0.l1" in labels and "c1.l1" in labels


class TestDisjointCoRunners:
    def test_disjoint_set_ranges_report_zero_contention(self):
        # Two synthetic traces confined to disjoint set-index halves of
        # the shared LLC. CORE_STRIDE is a power of two, so relocation
        # preserves set indices and the pair cannot evict each other.
        base = 0x1_2000_0000  # data-segment base, set index 0
        n_sets = LLC.n_sets
        line = LLC.line_size

        def trace(sets):
            addrs = np.array(
                [base + s * line for _ in range(40) for s in sets],
                dtype=np.uint64,
            )
            return [ReferenceBlock(addrs=addrs, cycles_per_ref=1.0)]

        low = range(0, n_sets // 2, 2)
        high = range(n_sets // 2, n_sets, 2)
        span = n_sets * line
        make = lambda sets: TraceWorkload(
            trace(sets), layout={"arena": (base, span)}, seed=SEED
        )
        result = run_multi([make(low), make(high)])
        for core in result.cores:
            ledger = core.contention.ledger
            assert ledger.contention_misses == 0
            assert ledger.rescued_misses == 0
            assert ledger.self_misses == core.cache_stats.misses > 0


class TestSnapshotRestore:
    def test_mid_run_snapshot_resume_is_bit_identical(
        self, tmp_path, quick_runner
    ):
        workloads = lambda: [
            quick_workload("compress", quick_runner),
            quick_workload("ijpeg", quick_runner),
        ]
        golden = run_multi(workloads(), ratios=[2, 1])

        session = MultiCoreSession.start(
            workloads(), llc_config=LLC, l1_config=L1, seed=SEED, ratios=[2, 1]
        )
        for _ in range(6):
            assert session.step()
        path = tmp_path / "mc.snap"
        session.snapshot().save(path)
        from repro.sim.session import SessionSnapshot

        restored = MultiCoreSession.restore(SessionSnapshot.load(path), workloads())
        restored.run()
        resumed = restored.finalize()

        assert resumed.stats == golden.stats
        assert resumed.cache_stats == golden.cache_stats
        for a, b in zip(resumed.cores, golden.cores):
            assert a.stats == b.stats
            assert a.contention.ledger.snapshot() == b.contention.ledger.snapshot()
            assert a.contention.self_by_object == b.contention.self_by_object
            assert (
                a.contention.contention_by_object
                == b.contention.contention_by_object
            )

    def test_single_core_restore_refuses_multicore_snapshots(self, quick_runner):
        session = MultiCoreSession.start(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ],
            llc_config=LLC,
            l1_config=L1,
            seed=SEED,
        )
        for _ in range(8):
            session.step()
        snap = session.snapshot()
        assert snap.version == 6
        assert len(snap.cores) == 2
        with pytest.raises(SimulationError, match="multi-core"):
            SimulationSession.restore(snap, quick_workload("compress", quick_runner))

    def test_multicore_restore_refuses_single_core_snapshots(self, quick_runner):
        workload = quick_workload("compress", quick_runner)
        session = Simulator(LLC, l1_config=L1, seed=SEED).start_session(workload)
        for _ in range(4):
            session.step()
        snap = session.snapshot()
        assert len(snap.cores) == 1  # v5: one CoreState, no port
        with pytest.raises(SimulationError, match="SimulationSession.restore"):
            MultiCoreSession.restore(
                snap, [quick_workload("compress", quick_runner)]
            )


class TestFinishedCoreCheckpoints:
    """A snapshot may hold a core that already used up its stream: it
    records that core's final cursor, and the core resumes finished."""

    CADENCE = 20_000

    @staticmethod
    def duo(runner):
        return [
            quick_workload("compress", runner),
            quick_workload("ijpeg", runner),
        ]

    @pytest.fixture(scope="class")
    def checkpointed(self, quick_runner):
        session = MultiCoreSession.start(
            self.duo(quick_runner), llc_config=LLC, l1_config=L1, seed=SEED
        )
        snaps = []
        finished = session.run(
            checkpoint_every_refs=self.CADENCE, on_checkpoint=snaps.append
        )
        return finished, snaps, outcome(session)

    def test_checkpointed_run_completes(self, checkpointed, quick_runner):
        finished, snaps, result = checkpointed
        assert finished is True
        assert result == outcome(stepped(MultiCoreSession.start(
            self.duo(quick_runner), llc_config=LLC, l1_config=L1, seed=SEED
        )))
        # The last checkpoints come after compress finished its stream.
        compress_stats = result[1][0]
        assert snaps[-1].cores[0].stats.app_refs == compress_stats.app_refs

    def test_resume_from_last_checkpoint_equals_uninterrupted(
        self, checkpointed, quick_runner
    ):
        _, snaps, result = checkpointed
        restored = MultiCoreSession.restore(snaps[-1], self.duo(quick_runner))
        assert restored.run() is True
        assert outcome(restored) == result


class TestValidationAndObservers:
    def test_rejects_decorated_configs_naming_the_stack(self, quick_runner):
        decorated = CacheConfig(size=64 * 1024, assoc=4, mechanisms="vc:16")
        with pytest.raises(CacheConfigError, match=r"vc\(16\)"):
            MultiCoreSession.start(
                [quick_workload("compress", quick_runner)],
                llc_config=decorated,
                seed=SEED,
            )

    def test_rejects_ratio_shape_mismatch(self, quick_runner):
        with pytest.raises(SimulationError, match="ratios"):
            MultiCoreSession.start(
                [quick_workload("compress", quick_runner)],
                llc_config=LLC,
                seed=SEED,
                ratios=[1, 2],
            )

    def test_core_rate_observer_sees_every_core(self, quick_runner):
        rates = CoreRateObserver()
        session = MultiCoreSession.start(
            [
                quick_workload("compress", quick_runner),
                quick_workload("ijpeg", quick_runner),
            ],
            llc_config=LLC,
            l1_config=L1,
            seed=SEED,
            observers=[rates],
        )
        session.run()
        result = session.finalize()
        rows = rates.rows()
        assert [core for core, *_ in rows] == [0, 1]
        for (core_id, refs, miss_rate, _), core in zip(rows, result.cores):
            assert core_id == core.core_id
            assert refs == core.stats.app_refs
            assert miss_rate == pytest.approx(
                core.stats.app_misses / core.stats.app_refs
            )


# ---------------------------------------------------------------- fused path

#: Fused-path runs use the kernel the CI leg selects (the array kernel,
#: the one the fast path exists for, by default).
BACKEND = os.environ.get("REPRO_BACKEND") or "array"
FUSED_LLCS = (16 * 1024, 64 * 1024)
TRACE_BASE = 0x1_2000_0000  # data-segment base
TRACE_LINES = 1024


class CompiledTrace(TraceWorkload):
    """A synthetic trace that compiles like a registry workload: its
    blocks are a function of ``n_blocks`` and ``seed``, which the stream
    fingerprint reads back, rather than of a file. It opens with an
    empty block and mixes non-dyadic cycle costs and block overheads,
    so the fused path's cursor and block costs are exercised."""

    compiled_stream_safe = True

    def __init__(self, n_blocks: int = 10, seed: int | None = None) -> None:
        rng = np.random.default_rng(seed)
        blocks = [ReferenceBlock(addrs=np.zeros(0), extra_cycles=5)]
        for i in range(n_blocks):
            lines = rng.integers(0, TRACE_LINES, int(rng.integers(100, 2500)))
            blocks.append(
                ReferenceBlock(
                    addrs=TRACE_BASE + lines.astype(np.uint64) * np.uint64(64),
                    cycles_per_ref=1.3 + i % 3,
                    extra_cycles=i,
                )
            )
        super().__init__(
            blocks, layout={"arena": (TRACE_BASE, TRACE_LINES * 64)}, seed=seed
        )
        self.n_blocks = n_blocks


FUSED_APPS = {
    "compress": lambda: make_workload("compress", seed=SEED, input_lines=1000),
    "mgrid": lambda: make_workload(
        "mgrid", seed=SEED, n_vcycles=2, fine_lines=1200
    ),
    "tomcatv": lambda: make_workload(
        "tomcatv", seed=SEED, n_steps=2, rows_per_step=4
    ),
    "trace": lambda: CompiledTrace(seed=SEED),
}
_STREAMS: dict = {}


def compiled_for(app: str):
    """The app's compiled stream, compiled once per test process."""
    if app not in _STREAMS:
        _STREAMS[app] = compile_workload(FUSED_APPS[app]())
    return _STREAMS[app]


def spy_fused():
    """Patch the multi-core fused entry point with a call-counting spy."""
    return mock.patch.object(
        MultiCoreSession,
        "_run_fused",
        autospec=True,
        side_effect=MultiCoreSession._run_fused,
    )


def fused_session(
    apps,
    ratios=None,
    l1=True,
    llc=FUSED_LLCS[0],
    chunk_size=1000,
    llc_policy=ReplacementPolicy.LRU,
    l1_policy=ReplacementPolicy.LRU,
    **kwargs,
):
    return MultiCoreSession.start(
        [FUSED_APPS[app]() for app in apps],
        llc_config=CacheConfig(size=llc, assoc=4, policy=llc_policy, backend=BACKEND),
        l1_config=(
            CacheConfig(size=4 * 1024, assoc=4, policy=l1_policy, backend=BACKEND)
            if l1
            else None
        ),
        seed=SEED,
        ratios=ratios,
        chunk_size=chunk_size,
        compiled=[compiled_for(app) for app in apps],
        **kwargs,
    )


def stepped(session) -> MultiCoreSession:
    while session.step():
        pass
    return session


def outcome(session) -> list:
    """Everything a finished run reports or keeps: the aggregate's and
    every core's stats, cache and component ledgers, contention ledger
    and per-object maps, plus each core's monitor, clock, shadow ledger
    and final cache contents."""
    result = session.finalize()
    out = []
    for unit in [result, *result.cores]:
        profile = unit.contention
        out.append(
            (
                unit.stats,
                unit.cache_stats,
                unit.component_stats,
                profile.ledger.snapshot(),
                profile.self_by_object,
                profile.contention_by_object,
                profile.unattributed_self,
                profile.unattributed_contention,
                None if unit.actual is None else unit.actual.table(),
            )
        )
    for core in session.cores:
        monitor = core.monitor
        out.append(
            (
                monitor.total_misses_observed,
                monitor.global_counter.value,
                monitor.last_miss_addr,
                monitor.recent_miss_addrs,
                core.clock.now,
                core.port.shadow.stats,
                [
                    contents(level)
                    for level in (
                        *core.cache.levels[:-1],
                        core.port.shared_level.leaf,
                        core.port.shadow,
                    )
                ],
            )
        )
    return out


def contents(cache) -> list:
    """Every set's resident lines in replacement order (the kernels'
    internal layout may differ with how the stream was cut into calls)."""
    return [cache.lines_in_set(s) for s in range(cache.config.n_sets)]


@st.composite
def co_runner_grids(draw):
    """1-3 compiled co-runners (one a trace), ratios 1-3, L1 on or off,
    two LLC sizes, and chunk sizes that split blocks."""
    n = draw(st.integers(min_value=1, max_value=3))
    apps = draw(st.lists(st.sampled_from(sorted(FUSED_APPS)), min_size=n, max_size=n))
    if "trace" not in apps:
        apps[draw(st.integers(min_value=0, max_value=n - 1))] = "trace"
    return {
        "apps": apps,
        "ratios": draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        "l1": draw(st.booleans()),
        "llc": draw(st.sampled_from(FUSED_LLCS)),
        "chunk_size": draw(st.integers(min_value=200, max_value=4000)),
    }


def fixed_grid(apps, ratios, l1, llc, chunk_size) -> dict:
    return {"apps": apps, "ratios": ratios, "l1": l1, "llc": llc, "chunk_size": chunk_size}


class TestFusedPath:
    @settings(max_examples=25, deadline=None)
    @given(grid=co_runner_grids())
    # Boundaries of the per-level fused path:
    # - leaf calls that close exactly where tomcatv's three-chunk private
    #   batches close (its ledgers commit there), and calls inside one;
    @example(grid=fixed_grid(["tomcatv", "trace"], [1, 1], True, FUSED_LLCS[0], 900))
    # - tomcatv, the shortest co-runner here, ends inside its first batch;
    @example(grid=fixed_grid(["tomcatv", "trace"], [2, 1], True, FUSED_LLCS[1], 7000))
    # - no private level: the leaf takes the chunks themselves;
    @example(grid=fixed_grid(["compress", "trace"], [1, 1], False, FUSED_LLCS[0], 1000))
    # - uneven grants.
    @example(grid=fixed_grid(["trace", "mgrid"], [3, 1], True, FUSED_LLCS[0], 700))
    def test_fused_run_equals_stepping(self, grid):
        with spy_fused() as fused:
            session = fused_session(**grid)
            session.run()
        assert fused.call_count == 1
        assert outcome(session) == outcome(stepped(fused_session(**grid)))

    @pytest.mark.parametrize("level", ["l1", "llc"])
    def test_random_level_keeps_stepping(self, level):
        random = ReplacementPolicy.RANDOM
        policy = {"l1_policy" if level == "l1" else "llc_policy": random}
        apps = ["compress", "trace"]
        session = fused_session(apps, **policy)
        assert not session.cores[0]._chunk_invariant_kernels()
        with spy_fused() as fused:
            session.run()
        assert fused.call_count == 0
        assert outcome(session) == outcome(stepped(fused_session(apps, **policy)))

    @pytest.mark.parametrize(
        "setup",
        ["tool", "observer", "max_refs", "series", "checkpoint", "max_steps", "restored"],
    )
    def test_everything_else_keeps_stepping(self, setup):
        apps = ["compress", "trace"]
        start = {
            "observer": {"observers": [CoreRateObserver()]},
            "max_refs": {"max_refs": 5000},
            "series": {"series_bucket_cycles": 50_000},
        }.get(setup, {})

        def session_for():
            session = fused_session(apps, ratios=[2, 1], **start)
            if setup == "tool":
                session.attach(SamplingProfiler(period=53))
            return session

        session = session_for()
        with spy_fused() as fused:
            if setup == "checkpoint":
                # One checkpoint, halfway (a checkpoint may also come after
                # a core finished; TestFinishedCoreCheckpoints covers that).
                half = sum(compiled_for(app).n_refs for app in apps) // 2
                snaps = []
                session.run(checkpoint_every_refs=half, on_checkpoint=snaps.append)
                assert len(snaps) == 1
            elif setup == "max_steps":
                session.run(max_steps=3)
                session.run()
            elif setup == "restored":
                for _ in range(3):
                    session.step()
                session = MultiCoreSession.restore(
                    session.snapshot(),
                    [FUSED_APPS[app]() for app in apps],
                    compiled=[compiled_for(app) for app in apps],
                )
                session.run()
            else:
                session.run()
        assert fused.call_count == 0
        assert outcome(session) == outcome(stepped(session_for()))

    def test_each_level_is_called_per_its_own_traffic(self):
        """Private levels take one call per batch of at least
        ``chunk_size`` references; the shared leaf and each shadow one per
        ``chunk_size`` post-L1 references, plus at most one per core for
        calls a finished stream closes early."""
        chunk_size = 1000
        session = fused_session(["compress", "trace"], chunk_size=chunk_size)
        levels = {"leaf": session.shared_level.leaf}
        for core in session.cores:
            levels[f"l1.c{core.core_id}"] = core.cache.levels[0]
            levels[f"shadow.c{core.core_id}"] = core.port.shadow
        with ExitStack() as stack:
            calls = {
                name: stack.enter_context(
                    mock.patch.object(level, "_chunk_access", wraps=level._chunk_access)
                ).call_args_list
                for name, level in levels.items()
            }
            with spy_fused() as fused:
                session.run()
        assert fused.call_count == 1
        post_refs = sum(len(call.args[0]) for call in calls["leaf"])
        bound = -(-post_refs // chunk_size) + len(session.cores)
        assert 0 < len(calls["leaf"]) <= bound
        for core in session.cores:
            assert len(calls[f"shadow.c{core.core_id}"]) <= bound
            assert len(calls[f"l1.c{core.core_id}"]) <= core.stats.app_refs // chunk_size + 1


@pytest.fixture
def sanitized():
    was_active = sanitize.is_active()
    sanitize.activate()
    yield
    if not was_active:
        sanitize.deactivate()


class TestFusedSanitizer:
    def test_fused_run_reproves_the_port_identities(self, sanitized):
        sanitize.reset_checks()
        session = fused_session(["compress", "trace"])
        with spy_fused() as fused:
            session.run()
        assert fused.call_count == 1
        assert sanitize.checks_run().get("ledger.shared_port", 0) > 0
        # The pair contends, so the identities had both classes to check.
        assert session.finalize().contention.ledger.contention_misses > 0

    def test_dropped_classified_miss_is_caught(self, sanitized):
        original = SharedLevelPort._classify
        dropped = []

        def drop_one(port, refs, res):
            original(port, refs, res)
            if not dropped and port._staged_self:
                port._staged_self -= 1
                dropped.append(port.core_id)

        with spy_fused() as fused, mock.patch.object(
            SharedLevelPort, "_classify", autospec=True, side_effect=drop_one
        ):
            with pytest.raises(SanitizerError, match="classif"):
                fused_session(["compress", "trace"]).run()
        assert fused.call_count == 1 and dropped
