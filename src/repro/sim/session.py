"""Resumable simulation sessions: the stateful core of the engine.

The paper's apparatus interleaves three things — application execution,
counter-overflow/timer interrupts, and the instrumentation code that runs
*inside* the simulation (§3). :class:`SimulationSession` makes that
interleaving an explicit object with a stepwise lifecycle::

    session = SimulationSession.start(workload, cache=..., monitor=...)
    session.attach([sampler, search])      # tools share the counter bank
    while session.step():                  # one chunk or one interrupt
        ...
    result = session.finalize()

Because every piece of run state (cache, monitor, clock, stats, ground
truth, tool state, stream cursor) lives on the session rather than in
engine locals, a run can be paused, serialised with :meth:`snapshot` and
continued later — on another process or after a crash — with
:meth:`restore`, producing results bit-identical to an uninterrupted
run. :class:`~repro.sim.engine.Simulator` is now a thin driver over this
class, and :class:`MultiCoreSession` is a scheduler over a list of them.

Virtual time: a block's first *k* references cost ``int(k ×
cycles_per_ref)`` cycles (:meth:`~repro.sim.blocks.ReferenceBlock.ref_cycles`)
and a chunk is charged the difference of two such costs, so the clock
depends on the stream cursor alone: it is the same at every
``chunk_size``, and the fused paths, which cut a compiled stream with
:meth:`SimulationSession._fused_batches`, charge each block's total once.

Multi-tool arbitration (§2.2's counter-resource trade-offs):

* the single *overflow counter* is exclusively owned — the first tool to
  arm it keeps it until it stops re-arming; a second tool arming while
  it is owned raises :class:`~repro.errors.CounterError` (there is only
  one such counter to give);
* the single hardware *timer* is time-multiplexed: the session keeps one
  virtual deadline per tool and programs the clock with the earliest,
  so a sampling profiler (overflow-driven) and an n-way search
  (timer-driven) can share one monitor;
* the region counter bank is shared cooperatively — tools program the
  counters they were told to use (``n`` for the search), exactly as
  §3.4's resource accounting assumes.

Snapshot invariants: the reference stream itself is *not* serialised —
workload generators are deterministic functions of their seed, so
:meth:`restore` rebuilds the workload and fast-forwards its block stream
to the recorded cursor, replaying allocation/free side effects into the
fresh object map. Every session snapshots as one shape, a
:class:`SessionSnapshot` of per-core :class:`CoreState` records. Neither
record has a field default, so a payload that misses a field, or names
one that does not exist, raises instead of restoring a default.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro import sanitize
from repro.cache import GroundTruth
from repro.cache.base import CacheModel
from repro.errors import CounterError, SimulationError
from repro.hpm.interrupts import CostModel, InterruptKind, InterruptRecord
from repro.hpm.monitor import PerformanceMonitor
from repro.memory.allocator import HeapAllocator
from repro.sim.clock import VirtualClock
from repro.sim.events import RunStats
from repro.sim.instrumentation import HandlerResult, InstrumentationTool, ToolContext
from repro.sim.observers import ChunkEvent, InterruptEvent, SessionObserver
from repro.util.pickle_io import dump_atomic

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.blocks import ReferenceBlock
    from repro.workloads.base import Workload
    from repro.workloads.compile import CompiledStream

#: Version stamp embedded in every snapshot; bumped whenever the payload
#: layout changes so stale checkpoint files are refused, not misread.
#: v2: the pickled cache may be a component stack (repro.cache.components).
#: v3: kernel snapshot tuples carry the RNG draw count (repro.sanitize.rng).
#: v4: a ``cores`` list of per-core records for multi-core sessions.
#: v5: one shape for every session — ``cores`` holds one
#: :class:`CoreState` per core (one for a single-core session) beside the
#: round-robin pointer ``next_core``; the v4 top-level copy of the next
#: core is gone, and a core that finished its stream records its final
#: cursor.
#: v6: the per-core fractional cycle carry is gone; a block's cycles are a
#: function of the cursor (:meth:`~repro.sim.blocks.ReferenceBlock.ref_cycles`).
#: Older checkpoints are refused by version.
SNAPSHOT_VERSION = 6

#: Target number of references per ``access`` call on the solo fused path
#: when every cache level is chunk invariant (LRU/FIFO throughout).
FUSE_TARGET_REFS = 1 << 17


# ------------------------------------------------------------- dispatcher

class ToolDispatcher:
    """Arbitrates interrupt delivery and counter resources among tools.

    One dispatcher per session. Tools are indexed in attach order, which
    is also the tie-break order for simultaneous timer deadlines, so
    delivery is deterministic regardless of how many tools are attached.
    """

    def __init__(self) -> None:
        self.tools: list[InstrumentationTool] = []
        #: Whether each tool still receives interrupts (False after done).
        self.active: list[bool] = []
        #: Per-tool virtual timer deadline (None = that tool's timer off).
        self.deadlines: list[int | None] = []
        #: Index of the tool currently owning the overflow counter.
        self.overflow_owner: int | None = None
        #: Instrumentation cycles (delivery + handler) charged per tool.
        self.cycles_by_tool: dict[str, int] = {}

    def add(self, tool: InstrumentationTool) -> int:
        self.tools.append(tool)
        self.active.append(True)
        self.deadlines.append(None)
        self.cycles_by_tool.setdefault(tool.name, 0)
        return len(self.tools) - 1

    @property
    def any_active(self) -> bool:
        return any(self.active)

    def earliest_deadline(self) -> tuple[int, int] | None:
        """(deadline, tool index) of the next timer firing, or None."""
        best: tuple[int, int] | None = None
        for idx, deadline in enumerate(self.deadlines):
            if deadline is None or not self.active[idx]:
                continue
            if best is None or deadline < best[0]:
                best = (deadline, idx)
        return best

    def set_deadline(self, idx: int, cycle: int) -> None:
        self.deadlines[idx] = cycle

    def clear_deadline(self, idx: int) -> None:
        self.deadlines[idx] = None

    def claim_overflow(self, idx: int) -> None:
        """Grant the overflow counter to ``idx`` (exclusive, §2.2)."""
        if self.overflow_owner is not None and self.overflow_owner != idx:
            owner = self.tools[self.overflow_owner].name
            raise CounterError(
                f"overflow-counter contention: tool "
                f"{self.tools[idx].name!r} armed the overflow counter "
                f"while {owner!r} owns it (one conditional overflow "
                "counter exists; see DESIGN.md section 8)"
            )
        self.overflow_owner = idx

    def deactivate(self, idx: int, monitor: PerformanceMonitor) -> None:
        """Tool finished: stop delivery and release its counter resources."""
        self.active[idx] = False
        self.deadlines[idx] = None
        if self.overflow_owner == idx:
            monitor.overflow_counter.disarm()
            self.overflow_owner = None

    def charge(self, idx: int, cycles: int) -> None:
        name = self.tools[idx].name
        self.cycles_by_tool[name] = self.cycles_by_tool.get(name, 0) + cycles


# --------------------------------------------------------------- snapshot

@dataclass
class CoreState:
    """One core's resumable state inside a :class:`SessionSnapshot`.

    Everything needed to continue the core is here *except* its
    reference stream: ``blocks_fetched``/``block_pos`` are the cursor
    into the workload's deterministic block generator, which restore
    replays. The live objects (cache, monitor, clock, ground truth,
    dispatcher with its tools) of every core are pickled as one graph,
    so shared references — a tool context pointing at the core's cache,
    every core's port pointing at one shared LLC — survive the round
    trip. A core that already used up its stream records its final
    cursor and resumes finished.
    """

    core_id: int
    address_offset: int
    workload_name: str
    blocks_fetched: int
    block_pos: int | None
    refs_left: int | None
    chunk_size: int
    cost_model: CostModel
    clock: VirtualClock
    stats: RunStats
    cache: CacheModel
    monitor: PerformanceMonitor
    ground_truth: GroundTruth | None
    dispatcher: ToolDispatcher | None
    #: Interleaver weight: chunks this core advances per round-robin turn.
    ratio: int
    #: Shared-level contention attribution so far (empty single-core).
    self_by_object: dict[str, int]
    contention_by_object: dict[str, int]
    unattributed_self: int
    unattributed_contention: int


@dataclass
class SessionSnapshot:
    """Serialized mid-run state of a :class:`SimulationSession` (one core)
    or a :class:`MultiCoreSession` (one :class:`CoreState` per core, in
    core order, and the core its next round-robin turn goes to)."""

    version: int
    next_core: int
    cores: list[CoreState]

    # ------------------------------------------------------------ storage

    def save(self, path: str | os.PathLike[str]) -> Path:
        """Write the snapshot to ``path`` atomically (rename-into-place)."""
        return dump_atomic(Path(path), self)

    @staticmethod
    def load(
        source: "SessionSnapshot | str | os.PathLike[str]",
    ) -> "SessionSnapshot":
        """``source`` as a snapshot this code can resume: a path is read
        from disk, an in-memory snapshot passes through. Raises
        SimulationError naming a path on bad contents (a truncated or
        corrupt file, one that pickled a class that no longer exists,
        another object) and on another format version, whatever the
        source."""
        loaded, where = source, ""
        if not isinstance(source, SessionSnapshot):
            where = f" {source}"
            with Path(source).open("rb") as fh:
                try:
                    loaded = pickle.load(fh)
                except Exception as exc:  # unpickling garbage can raise anything
                    raise SimulationError(
                        f"cannot read snapshot {source}: {type(exc).__name__}: {exc}"
                    ) from exc
            if not isinstance(loaded, SessionSnapshot):
                raise SimulationError(f"{source} does not contain a SessionSnapshot")
        if loaded.version != SNAPSHOT_VERSION:
            raise SimulationError(
                f"snapshot{where} version {loaded.version} incompatible "
                f"with current format {SNAPSHOT_VERSION}"
            )
        return loaded


def _port_of(cache: CacheModel):
    """The :class:`~repro.cache.components.SharedLevelPort` a core's cache
    pipeline ends in (one core of a multi-core run), or None."""
    levels = getattr(cache, "levels", None)
    return levels[-1] if levels and hasattr(levels[-1], "shared_level") else None


def _capture(cores: "list[SimulationSession]", next_core: int) -> SessionSnapshot:
    """The detached snapshot both ``snapshot()`` methods return.

    Pickling every core in one graph serialises a shared LLC exactly
    once; unpickling rebuilds it as one object every port references.
    The round trip also detaches the snapshot, so the live session can
    keep running without mutating it.
    """
    if any(core._finalized for core in cores):
        raise SimulationError("cannot snapshot a finalized session")
    if all(core._exhausted for core in cores):
        raise SimulationError("cannot snapshot an exhausted session")
    payload = {
        "version": SNAPSHOT_VERSION,
        "next_core": next_core,
        "cores": [core._core_state() for core in cores],
    }
    snap = SessionSnapshot(**payload)
    detached: SessionSnapshot = pickle.loads(
        pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL)
    )
    if sanitize.is_active():
        # Canary before anyone trusts this snapshot: a second roundtrip
        # must preserve every core's cursor, stats and cache state.
        sanitize.snapshot_canary(detached)
    return detached


def _resume_cores(
    snapshot: "SessionSnapshot | str | os.PathLike[str]",
    workloads: "Sequence[Workload]",
    observers: Sequence[SessionObserver],
    compiled: "Sequence[CompiledStream | None] | None",
    *,
    multicore: bool,
) -> "tuple[list[SimulationSession], int]":
    """Check ``snapshot`` and resume every core it holds: the one restore
    routine behind :meth:`SimulationSession.restore` and
    :meth:`MultiCoreSession.restore`, whatever the snapshot's source (a
    file, a checkpoint or an in-memory object).

    ``workloads`` and ``compiled`` are in core order; compiled streams
    are the *unshifted* compilations and each core's recorded relocation
    is reapplied here. Returns the cores and the round-robin pointer.
    """
    from repro.workloads.compile import offset_stream

    snapshot = SessionSnapshot.load(snapshot)
    states = snapshot.cores
    if any((_port_of(state.cache) is None) == multicore for state in states):
        raise SimulationError(
            "snapshot holds a single-core session; restore it with "
            "SimulationSession.restore"
            if multicore
            else "snapshot holds a multi-core session; restore it with "
            "MultiCoreSession.restore"
        )
    workloads = list(workloads)
    streams = [None] * len(states) if compiled is None else list(compiled)
    for given, what in ((workloads, "workloads"), (streams, "compiled streams")):
        if len(given) != len(states):
            raise SimulationError(
                f"snapshot has {len(states)} cores but {len(given)} {what} "
                "were supplied"
            )
    ids = [state.core_id for state in states]
    if ids != list(range(len(states))):
        raise SimulationError(f"snapshot core ids {ids} are not 0..N-1 in order")
    cores = [
        SimulationSession._resume(
            state,
            workload,
            observers,
            None if stream is None else offset_stream(stream, state.address_offset),
        )
        for state, workload, stream in zip(states, workloads, streams)
    ]
    if len({id(core.port.shared_level) for core in cores if core.port}) > 1:
        raise SimulationError(
            "restored cores do not share one LLC; the snapshot graph lost "
            "the shared identity"
        )
    return cores, snapshot.next_core


def _drive(session, max_steps, checkpoint_every_refs, on_checkpoint) -> bool:
    """The run loop of both session types (see :meth:`SimulationSession.run`)."""
    if checkpoint_every_refs is not None:
        if checkpoint_every_refs <= 0:
            raise SimulationError(
                f"checkpoint_every_refs must be positive, got {checkpoint_every_refs}"
            )
        if on_checkpoint is None:
            raise SimulationError("checkpoint_every_refs needs an on_checkpoint callback")
    elif max_steps is None and session._fused_ready():
        session._run_fused()
        return True
    due = None if checkpoint_every_refs is None else session.app_refs + checkpoint_every_refs
    steps = 0
    while max_steps is None or steps < max_steps:
        if not session.step():
            return True
        steps += 1
        if due is not None and session.app_refs >= due:
            on_checkpoint(session.snapshot())
            due = session.app_refs + checkpoint_every_refs
    return session.finished


# ---------------------------------------------------------------- session

class SimulationSession:
    """One in-progress simulated run — one core — stepwise and serialisable."""

    def __init__(
        self,
        workload: "Workload",
        *,
        cache: CacheModel,
        monitor: PerformanceMonitor,
        clock: VirtualClock | None = None,
        stats: RunStats | None = None,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: GroundTruth | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        core_id: int = 0,
    ) -> None:
        if chunk_size <= 0:
            raise SimulationError("chunk_size must be positive")
        self.workload = workload
        self.cache = cache
        #: Which core this session models (0 in single-core runs); stamped
        #: on observer events so one observer can ride every core of a
        #: :class:`MultiCoreSession`.
        self.core_id = core_id
        #: The shared-level port the cache pipeline ends in when this
        #: session is one core of a :class:`MultiCoreSession`, else None.
        #: Every step drains its classified misses into the per-object
        #: tallies below; finalize reports them as the core's contention.
        self.port = _port_of(cache)
        if self.port is not None:
            # Merged multi-core outputs name objects per core ("c0:htab").
            workload.object_map.namespace = f"c{core_id}"
        #: Interleaver weight: chunks this core advances per round-robin turn.
        self.ratio = 1
        #: Shared-level misses attributed per object (namespace-qualified),
        #: split by classification; misses whose address matched no live
        #: object (e.g. freed heap blocks) are counted apart, so the
        #: per-core sums stay conserved.
        self.self_by_object: dict[str, int] = {}
        self.contention_by_object: dict[str, int] = {}
        self.unattributed_self = 0
        self.unattributed_contention = 0
        self.monitor = monitor
        self.clock = clock if clock is not None else VirtualClock()
        self.stats = stats if stats is not None else RunStats()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.chunk_size = chunk_size
        self.ground_truth = ground_truth
        #: Observers are transient by design: they are not serialised in
        #: snapshots and must be re-attached after restore.
        self.observers: list[SessionObserver] = list(observers)
        self.dispatcher: ToolDispatcher | None = None

        self._blocks: Iterator["ReferenceBlock"] | None = None
        self._compiled: "CompiledStream | None" = None
        self._block: "ReferenceBlock | None" = None
        self._blocks_fetched = 0
        self._pos = 0
        self._refs_left = max_refs if max_refs is not None else None
        self._exhausted = False
        self._finalized = False
        self._shared_ctx: ToolContext | None = None

    # ------------------------------------------------------------ creation

    @classmethod
    def start(
        cls,
        workload: "Workload",
        *,
        cache: CacheModel,
        monitor: PerformanceMonitor,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
        core_id: int = 0,
    ) -> "SimulationSession":
        """Begin a fresh run: prepare the workload and open its stream.

        A workload whose stream was already consumed by an earlier run is
        reset first, so back-to-back runs over one instance are
        deterministic (each sees a freshly built substrate).

        ``compiled`` substitutes a precompiled copy of the workload's
        reference stream (see :mod:`repro.workloads.compile`) for the
        generator: the session verifies its fingerprint against the live
        workload, then reads blocks from the frozen arrays. The workload
        is still prepared (ground truth and tools need its object map)
        but its generator never runs, and — when nothing needs per-chunk
        interleaving — :meth:`run` switches to a bulk path.
        """
        if workload.consumed:
            workload.reset()
        workload.prepare()
        if compiled is not None:
            cls._check_compiled(workload, compiled)
        gt: GroundTruth | None = None
        if ground_truth:
            gt = GroundTruth(workload.object_map)
            if series_bucket_cycles is not None:
                gt.enable_series(series_bucket_cycles)
        session = cls(
            workload,
            cache=cache,
            monitor=monitor,
            cost_model=cost_model,
            chunk_size=chunk_size,
            ground_truth=gt,
            max_refs=max_refs,
            observers=observers,
            core_id=core_id,
        )
        if compiled is not None:
            session._compiled = compiled
            session._blocks = compiled.iter_blocks()
        else:
            session._blocks = workload.blocks()
        return session

    @staticmethod
    def _check_compiled(workload: "Workload", compiled: "CompiledStream") -> None:
        """Refuse a compiled stream that does not match the live workload."""
        from repro.workloads.compile import stream_fingerprint

        if compiled.workload_name != workload.name:
            raise SimulationError(
                f"compiled stream is for workload "
                f"{compiled.workload_name!r}, got {workload.name!r}"
            )
        expected = stream_fingerprint(workload)
        if compiled.fingerprint != expected:
            raise SimulationError(
                f"compiled stream fingerprint {compiled.fingerprint[:12]}… "
                f"does not match this workload/code version "
                f"({expected[:12]}…); recompile the stream"
            )

    # -------------------------------------------------------------- attach

    def attach(
        self, tools: "InstrumentationTool | Iterable[InstrumentationTool] | None"
    ) -> None:
        """Attach instrumentation tools (in delivery-priority order).

        Each tool gets the shared :class:`ToolContext` (one monitor, one
        cache, one instrumentation-segment allocator) and its ``attach``
        arming requests are applied through the dispatcher's arbitration
        rules. Attaching after the run has started is an error — the
        paper's tools install themselves before the application runs.
        """
        if tools is None:
            return
        if isinstance(tools, InstrumentationTool):
            tools = [tools]
        tools = list(tools)
        if not tools:
            return
        if self.stats.app_refs > 0 or self._blocks_fetched > 0:
            raise SimulationError("tools must attach before the run starts")
        if self.dispatcher is None:
            self.dispatcher = ToolDispatcher()
        if self._shared_ctx is None:
            instr_alloc = HeapAllocator(self.workload.address_space.instr)
            self._shared_ctx = ToolContext(
                object_map=self.workload.object_map,
                monitor=self.monitor,
                cost_model=self.cost_model,
                address_space=self.workload.address_space,
                cache=self.cache,
                instr_allocator=instr_alloc,
            )
        for observer in self.observers:
            observer.on_attach(self)
        for tool in tools:
            idx = self.dispatcher.add(tool)
            tool.ctx = self._shared_ctx
            # Arming requests apply, but no interrupt is recorded: nothing
            # was delivered yet.
            self._apply_handler_result(idx, tool.attach(self._shared_ctx))

    def add_observer(self, observer: SessionObserver) -> None:
        self.observers.append(observer)

    # ------------------------------------------------------------- running

    @property
    def finished(self) -> bool:
        """True once the stream is exhausted or ``max_refs`` was reached."""
        return self._exhausted or (
            self._refs_left is not None and self._refs_left <= 0
        )

    @property
    def app_refs(self) -> int:
        """Application references simulated so far."""
        return self.stats.app_refs

    def step(self) -> bool:
        """Advance by one unit — one cache chunk or one interrupt delivery.

        Returns False once the application stream is done (after which
        :meth:`finalize` produces the :class:`~repro.sim.engine.RunResult`).
        """
        if self._finalized:
            raise SimulationError("session already finalized")
        # --- stream cursor bookkeeping -------------------------------
        # Mirrors the monolithic loop exactly: a completed block charges
        # its fixed extra_cycles *before* the max_refs cut is evaluated,
        # and a mid-block cut never charges them; the next block is only
        # fetched (running generator side effects like heap churn) when
        # the run is actually going to execute it.
        while True:
            if self._block is not None and self._pos >= len(self._block.addrs):
                self.clock.advance_app(self._block.extra_cycles)
                self._block = None
            if self._refs_left is not None and self._refs_left <= 0:
                return False
            if self._block is None:
                if self._blocks is None:
                    raise SimulationError(
                        "session has no open stream (use start/restore)"
                    )
                try:
                    self._block = next(self._blocks)
                except StopIteration:
                    self._exhausted = True
                    return False
                self._blocks_fetched += 1
                self._pos = 0
                continue
            break
        self._process_chunk()
        if self.port is not None:
            self._attribute()
        return True

    def run(
        self,
        max_steps: int | None = None,
        checkpoint_every_refs: int | None = None,
        on_checkpoint=None,
    ) -> bool:
        """Drive :meth:`step` until done (or for ``max_steps`` units).

        ``checkpoint_every_refs`` (positive, and only together with
        ``on_checkpoint``) invokes ``on_checkpoint(snapshot)`` each time
        that many further application references have been simulated —
        the hook :class:`~repro.experiments.parallel.ParallelRunner` uses
        to persist worker progress. Returns :attr:`finished`, so
        ``max_steps=0`` advances nothing and returns False on a fresh
        session. :meth:`MultiCoreSession.run` shares this loop.

        A virgin session over a compiled stream with nothing observing
        individual chunks (no tools, no observers, no max_refs, no
        ground-truth series, no checkpointing) runs through the bulk
        fused path instead of stepping — bit-identical results, far
        fewer Python-level iterations (DESIGN.md section 9).
        """
        return _drive(self, max_steps, checkpoint_every_refs, on_checkpoint)

    # ----------------------------------------------------------- fused path

    def _fused_ready(self) -> bool:
        """Whether the bulk compiled-stream path would be observably
        identical to stepping: nothing may depend on per-chunk
        interleaving (interrupts, observers, series timestamps, ref
        budgets) and the session must not have started yet."""
        return (
            self._compiled is not None
            and not self._finalized
            and not self._exhausted
            and self._blocks_fetched == 0
            and self._block is None
            and self._refs_left is None
            and self.dispatcher is None
            and not self.observers
            and self.stats.app_refs == 0
            and (self.ground_truth is None or self.ground_truth.series is None)
        )

    def _chunk_invariant_kernels(self) -> bool:
        """True when every cache level's results are independent of how
        the reference stream is partitioned into ``access`` calls.

        The one dependence is RANDOM replacement: the kernels' shared
        eviction pool refills are keyed on chunk length, so re-chunking
        changes the eviction stream. LRU/FIFO kernels are pure functions
        of the reference order. Mechanism-decorated stacks are invariant
        even under RANDOM: decorators ask every kernel in their stack for
        per-miss victims, and such calls refill the pool only when it
        runs empty, so draws depend on the eviction count alone.

        Every kernel is found by walking pipeline ``levels`` and, for a
        shared-level port, its shared leaf and solo shadow.
        """
        from repro.cache.policies import ReplacementPolicy

        if self.cache.config.mechanisms:
            return True
        parts = [self.cache]
        while parts:
            part = parts.pop()
            if hasattr(part, "levels"):
                parts.extend(part.levels)
            elif hasattr(part, "shared_level"):
                parts += [part.shared_level.leaf, part.shadow]
            elif part.config.policy is ReplacementPolicy.RANDOM:
                return False
        return True

    def _run_fused(self) -> None:
        """Drive the whole compiled stream through the cache in bulk: one
        ``access`` call per :meth:`_fused_batches` batch. Batches hold
        :data:`FUSE_TARGET_REFS` references when every level is chunk
        invariant, and one chunk each otherwise, so each call is the
        chunk :meth:`step` would make (see :meth:`_chunk_invariant_kernels`)."""
        target = FUSE_TARGET_REFS if self._chunk_invariant_kernels() else 1
        for batch in self._fused_batches(target):
            addrs, writes = batch[0]
            if len(batch) > 1:
                addrs = np.concatenate([chunk for chunk, _ in batch])
                if writes is not None:
                    writes = np.concatenate([mask for _, mask in batch])
            result = self.cache.access(addrs, miss_budget=None, tag="app", writes=writes)
            self._account(len(addrs), addrs[result.miss_mask])

    def _fused_pieces(self) -> Iterator[tuple[int, np.ndarray, bool]]:
        """The compiled stream cut into :meth:`step`'s chunks, for a fused
        multi-core run: per chunk, its length, its references that pass
        the private levels, and whether it closes a private-level batch.
        The private levels run ahead, one ``Pipeline._filter`` call per
        :meth:`_fused_batches` batch of at least ``chunk_size`` references
        (fewer only where a write-mask flip or the stream's end closes
        it), split back into its chunks."""
        for batch in self._fused_batches(self.chunk_size):
            chunks = [addrs for addrs, _ in batch]
            post, index = self.cache._filter(np.concatenate(chunks))
            ends = np.cumsum([len(chunk) for chunk in chunks])
            cuts = ends if index is None else np.searchsorted(index, ends)
            lo = 0
            for i, hi in enumerate(cuts.tolist()):
                yield len(chunks[i]), post[lo:hi], i == len(chunks) - 1
                lo = hi

    def _fused_batches(
        self, target: int
    ) -> Iterator[list[tuple[np.ndarray, np.ndarray | None]]]:
        """The compiled stream cut into :meth:`step`'s ``(addrs, writes)``
        chunks and gathered into batches for a fused run, the one cutter
        both fused paths use. A batch closes once it holds ``target``
        references, and before a block whose write-mask presence differs
        from its own, so read-only chunks stay on the kernels' fast path.
        Each block's :attr:`~repro.sim.blocks.ReferenceBlock.total_cycles`
        is charged once, when the cutter leaves the block, and the cursor
        closes once the last block is cut."""
        assert self._compiled is not None
        batch: list[tuple[np.ndarray, np.ndarray | None]] = []
        size = 0
        for block in self._compiled.blocks:
            writes = block.writes
            if batch and (batch[0][1] is None) != (writes is None):
                yield batch
                batch, size = [], 0
            for lo in range(0, len(block), self.chunk_size):
                chunk = slice(lo, lo + self.chunk_size)
                batch.append((block.addrs[chunk], None if writes is None else writes[chunk]))
                size += len(batch[-1][0])
                if size >= target:
                    yield batch
                    batch, size = [], 0
            self.clock.advance_app(block.total_cycles)
        # Leave the cursor where stepping the stream to its end would.
        self._blocks_fetched = len(self._compiled.blocks)
        self._blocks = iter(())
        self._exhausted = True
        if batch:
            yield batch

    # ---------------------------------------------------- chunk accounting

    def _account(self, n_refs: int, miss_addrs: np.ndarray) -> None:
        """Count ``n_refs`` references as simulated and feed their misses,
        ``miss_addrs`` in stream order, to the monitor and ground truth."""
        self.monitor.observe(miss_addrs)
        if self.ground_truth is not None:
            self.ground_truth.observe(miss_addrs, cycle=self.clock.now)
        self.stats.app_refs += n_refs
        self.stats.app_misses += len(miss_addrs)

    # ---------------------------------------------------------- chunk body

    def _process_chunk(self) -> None:
        """Simulate one chunk of application references, or deliver the
        interrupt that precedes it; the exact transcription of the
        original engine loop body (interrupt points must stay precise)."""
        block = self._block
        assert block is not None
        addrs = block.addrs
        n = len(addrs)
        dispatcher = self.dispatcher
        tool_active = dispatcher is not None and dispatcher.any_active

        cap = min(n - self._pos, self.chunk_size)
        if self._refs_left is not None:
            cap = min(cap, self._refs_left)
        until_deadline = self.clock.cycles_until_deadline()
        if until_deadline is not None and tool_active:
            if until_deadline <= 0:
                self._deliver(InterruptKind.TIMER)
                return
            cap = min(cap, block.refs_within_cycles(until_deadline, self._pos))
        miss_budget = self.monitor.misses_until_overflow() if tool_active else None
        if miss_budget is not None and miss_budget <= 0:
            # Overflow already pending (e.g. from handler pollution).
            self._deliver(InterruptKind.MISS_OVERFLOW)
            return

        chunk = addrs[self._pos : self._pos + cap]
        chunk_writes = (
            block.writes[self._pos : self._pos + cap]
            if block.writes is not None
            else None
        )
        port = self.port
        contention_before = (
            port.contention.contention_misses if port is not None else 0
        )
        result = self.cache.access(
            chunk, miss_budget=miss_budget, tag="app", writes=chunk_writes
        )
        consumed = result.consumed
        miss_addrs = chunk[:consumed][result.miss_mask]
        self._account(consumed, miss_addrs)
        self.clock.advance_app(
            block.ref_cycles(self._pos + consumed) - block.ref_cycles(self._pos)
        )
        self._pos += consumed
        if self._refs_left is not None:
            self._refs_left -= consumed

        if self.observers:
            event = ChunkEvent(
                cycle=self.clock.now,
                app_refs=consumed,
                n_misses=len(miss_addrs),
                miss_addrs=miss_addrs,
                block_label=block.label,
                total_app_refs=self.stats.app_refs,
                core_id=self.core_id,
                n_contention=(
                    port.contention.contention_misses - contention_before
                    if port is not None
                    else 0
                ),
            )
            for observer in self.observers:
                observer.on_chunk(event)

        # Both deliveries can follow one chunk (an overflow handler can run
        # the clock past a pending deadline) — sequential ifs, not elif.
        if dispatcher is not None and dispatcher.any_active and self.monitor.overflow_pending:
            self._deliver(InterruptKind.MISS_OVERFLOW)
        if dispatcher is not None and dispatcher.any_active and self.clock.timer_expired:
            self._deliver(InterruptKind.TIMER)

    # ------------------------------------------------------------ interrupts

    def _deliver(self, kind: InterruptKind) -> None:
        """Deliver one interrupt to the tool the dispatcher selects."""
        dispatcher = self.dispatcher
        assert dispatcher is not None
        if kind is InterruptKind.MISS_OVERFLOW:
            idx = dispatcher.overflow_owner
            if idx is None:
                raise SimulationError(
                    "overflow pending but no tool owns the overflow counter"
                )
            self.monitor.overflow_counter.disarm()
            dispatcher.overflow_owner = None
            tool = dispatcher.tools[idx]
            result = tool.on_miss_overflow(self.clock.now)
        else:
            expired = dispatcher.earliest_deadline()
            if expired is None:
                raise SimulationError("timer expired but no tool deadline set")
            _, idx = expired
            dispatcher.clear_deadline(idx)
            self._sync_clock_deadline()
            tool = dispatcher.tools[idx]
            result = tool.on_timer(self.clock.now)

        delivery = self.cost_model.interrupt_delivery_cycles
        self.clock.advance_instr(delivery + result.handler_cycles)
        dispatcher.charge(idx, delivery + result.handler_cycles)
        self.stats.interrupts.append(
            InterruptRecord(
                kind=kind,
                cycle=self.clock.now,
                handler_cycles=result.handler_cycles,
                delivery_cycles=delivery,
                tool=tool.name,
            )
        )
        self._apply_handler_result(idx, result)
        if self.observers:
            event = InterruptEvent(
                cycle=self.clock.now,
                kind=kind,
                tool=tool.name,
                handler_cycles=result.handler_cycles,
                delivery_cycles=delivery,
                core_id=self.core_id,
            )
            for observer in self.observers:
                observer.on_interrupt(event)

    def _apply_handler_result(self, idx: int, result: HandlerResult) -> None:
        """Run handler memory refs through the cache and apply arming."""
        dispatcher = self.dispatcher
        assert dispatcher is not None
        if result.mem_refs is not None and len(result.mem_refs):
            refs = np.ascontiguousarray(result.mem_refs, dtype=np.uint64)
            access = self.cache.access(refs, tag="instr")
            # Instrumentation misses pollute the hardware counters exactly
            # as they would on real hardware; ground truth (below the
            # architecture) excludes them by construction.
            instr_misses = refs[access.miss_mask]
            self.monitor.observe(instr_misses)
        if result.rearm_overflow is not None:
            dispatcher.claim_overflow(idx)
            self.monitor.overflow_counter.arm_overflow(result.rearm_overflow)
        if result.next_timer_in is not None:
            dispatcher.set_deadline(
                idx, self.clock.now + max(1, result.next_timer_in)
            )
        if result.done:
            dispatcher.deactivate(idx, self.monitor)
        self._sync_clock_deadline()

    def _sync_clock_deadline(self) -> None:
        """Program the single hardware timer with the earliest deadline."""
        if self.dispatcher is None:
            return
        earliest = self.dispatcher.earliest_deadline()
        self.clock.sync_deadline(earliest[0] if earliest is not None else None)

    # ---------------------------------------------------------- attribution

    def _attribute(self) -> None:
        """Drain the port's classified shared-level misses into per-object
        tallies, against the object map as it stands *now* (the addresses
        were classified at most one chunk ago, so heap churn cannot have
        moved them more than one chunk's worth of allocations)."""
        pending = self.port.drain_classified()
        if not pending:
            return
        object_map = self.workload.object_map
        snap = object_map.snapshot()
        for self_addrs, contention_addrs in pending:
            self.unattributed_self += self._tally(
                snap, object_map, self_addrs, self.self_by_object
            )
            self.unattributed_contention += self._tally(
                snap, object_map, contention_addrs, self.contention_by_object
            )

    @staticmethod
    def _tally(snap, object_map, addrs, dest: dict[str, int]) -> int:
        """Add per-object counts of ``addrs`` into ``dest``; returns the
        number of addresses that matched no live object."""
        if len(addrs) == 0:
            return 0
        counts = snap.count_by_object(addrs)
        attributed = 0
        for obj, count in zip(snap.objects, counts):
            if count:
                name = object_map.qualify(obj.name)
                dest[name] = dest.get(name, 0) + int(count)
                attributed += int(count)
        return int(len(addrs)) - attributed

    def _profile(self):
        from repro.cache.contention import ContentionProfile

        return ContentionProfile(
            ledger=self.port.contention.snapshot(),
            self_by_object=dict(self.self_by_object),
            contention_by_object=dict(self.contention_by_object),
            unattributed_self=self.unattributed_self,
            unattributed_contention=self.unattributed_contention,
        )

    # ------------------------------------------------------------- finalize

    def finalize(self):
        """Close the run and assemble the :class:`~repro.sim.engine.RunResult`
        (with the core's contention profile when it has a shared port)."""
        from repro.sim.engine import RunResult

        if self._finalized:
            raise SimulationError("session already finalized")
        self._finalized = True
        if self.port is not None:
            self._attribute()  # drain any classified misses left over
        # Freeze the totals at stream end: tool teardown below must not be
        # able to drift what this run reports as instrumentation activity.
        cache_stats = self.cache.stats.snapshot()
        ledgers = getattr(self.cache, "component_ledgers", None)
        component_stats = (
            [(name, stats.snapshot()) for name, stats in ledgers()]
            if ledgers is not None
            else None
        )
        tools = self.dispatcher.tools if self.dispatcher is not None else []
        for tool in tools:
            tool.on_run_end(self.clock.now)

        self.stats.app_cycles = self.clock.app_cycles
        self.stats.instr_cycles = self.clock.instr_cycles
        self.stats.instr_refs = cache_stats.accesses_by_tag.get("instr", 0)
        self.stats.instr_misses = cache_stats.misses_by_tag.get("instr", 0)
        if self.dispatcher is not None:
            self.stats.instr_cycles_by_tool = dict(
                self.dispatcher.cycles_by_tool
            )

        for observer in self.observers:
            observer.on_finalize(self)

        gt = self.ground_truth
        primary = tools[0] if tools else None
        return RunResult(
            workload_name=self.workload.name,
            cache_config=self.cache.config,
            stats=self.stats,
            actual=gt.profile() if gt is not None else None,
            measured=primary.profile() if primary is not None else None,
            series=gt.series if gt is not None else None,
            ground_truth=gt,
            tool=primary,
            tools=list(tools) if tools else None,
            cache_stats=cache_stats,
            component_stats=component_stats,
            core_id=self.core_id,
            contention=self._profile() if self.port is not None else None,
        )

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> SessionSnapshot:
        """Serialisable, detached copy of the complete mid-run state: a
        :class:`SessionSnapshot` holding this session as its one core."""
        if self.port is not None:
            raise SimulationError(
                "this session is one core of a multi-core run; snapshot "
                "the MultiCoreSession instead (its payload serialises the "
                "shared LLC exactly once)"
            )
        return _capture([self], 0)

    def _core_state(self) -> CoreState:
        """This core's :class:`CoreState`, the one constructor both
        ``snapshot()`` methods use (its payload must name every field:
        :class:`CoreState` has no defaults)."""
        if self.port is not None:
            # Classified addresses still pending attribution would be
            # lost by a snapshot (the arrays are drained, not pickled);
            # fold them into the per-object tallies first.
            self._attribute()
        payload = {
            "core_id": self.core_id,
            "address_offset": self.workload.address_offset,
            "workload_name": self.workload.name,
            "blocks_fetched": self._blocks_fetched,
            "block_pos": self._pos if self._block is not None else None,
            "refs_left": self._refs_left,
            "chunk_size": self.chunk_size,
            "cost_model": self.cost_model,
            "clock": self.clock,
            "stats": self.stats,
            "cache": self.cache,
            "monitor": self.monitor,
            "ground_truth": self.ground_truth,
            "dispatcher": self.dispatcher,
            "ratio": self.ratio,
            "self_by_object": self.self_by_object,
            "contention_by_object": self.contention_by_object,
            "unattributed_self": self.unattributed_self,
            "unattributed_contention": self.unattributed_contention,
        }
        return CoreState(**payload)

    @classmethod
    def restore(
        cls,
        snapshot: "SessionSnapshot | str | os.PathLike[str]",
        workload: "Workload",
        observers: Sequence[SessionObserver] = (),
        compiled: "CompiledStream | None" = None,
    ) -> "SimulationSession":
        """Rebuild a running session from a snapshot (or a path to one)
        and an equivalent workload instance (same name/construction
        parameters/seed).

        The workload's deterministic block stream is regenerated and
        fast-forwarded to the snapshot's cursor — replaying any mid-run
        allocation churn into the fresh object map — then the restored
        ground truth and tool contexts are re-bound to that live map so
        later allocations keep flowing into attribution.

        ``compiled`` fast-forwards over a precompiled stream instead of
        re-running the generator (compiled streams are churn-free by
        construction, so there are no side effects to replay). Snapshots
        do not record which stream source produced them: the two are
        bit-identical, so either may resume the other.
        """
        (session,), _ = _resume_cores(
            snapshot, [workload], observers, [compiled], multicore=False
        )
        return session

    @classmethod
    def _resume(
        cls,
        state: CoreState,
        workload: "Workload",
        observers: Sequence[SessionObserver],
        compiled: "CompiledStream | None",
    ) -> "SimulationSession":
        """Rebuild one running core from its :class:`CoreState`."""
        if workload.name != state.workload_name:
            raise SimulationError(
                f"snapshot is for workload {state.workload_name!r}, "
                f"got {workload.name!r}"
            )
        # Before prepare(): it builds the core's shifted address space.
        workload.address_offset = state.address_offset
        if workload.consumed:
            workload.reset()
        workload.prepare()
        if compiled is not None:
            cls._check_compiled(workload, compiled)

        session = cls(
            workload,
            cache=state.cache,
            monitor=state.monitor,
            clock=state.clock,
            stats=state.stats,
            cost_model=state.cost_model,
            chunk_size=state.chunk_size,
            ground_truth=state.ground_truth,
            observers=observers,
            core_id=state.core_id,
        )
        session.dispatcher = state.dispatcher
        session._refs_left = state.refs_left
        session.ratio = state.ratio
        session.self_by_object = state.self_by_object
        session.contention_by_object = state.contention_by_object
        session.unattributed_self = state.unattributed_self
        session.unattributed_contention = state.unattributed_contention

        if compiled is not None:
            session._compiled = compiled
            blocks = compiled.iter_blocks()
        else:
            blocks = workload.blocks()
        block = None
        for _ in range(state.blocks_fetched):
            try:
                block = next(blocks)
            except StopIteration:
                raise SimulationError(
                    "snapshot cursor is beyond the regenerated stream; "
                    "workload parameters differ from the snapshotted run"
                ) from None
        session._blocks = blocks
        session._blocks_fetched = state.blocks_fetched
        if state.block_pos is not None:
            session._block = block
            session._pos = state.block_pos

        # Re-bind attribution and tool contexts to the regenerated live
        # substrate (the pickled copies froze at snapshot time and would
        # miss post-restore alloc/free events), carrying over the pending
        # probe counts — ephemeral map state the next handler is charged
        # for — from the snapshotted map.
        old_map = None
        if session.ground_truth is not None:
            old_map = session.ground_truth.object_map
            session.ground_truth.object_map = workload.object_map
        if session.dispatcher is not None:
            rebound: set[int] = set()
            for tool in session.dispatcher.tools:
                ctx = tool.ctx
                if ctx is not None and id(ctx) not in rebound:
                    rebound.add(id(ctx))
                    if old_map is None:
                        old_map = ctx.object_map
                    ctx.object_map = workload.object_map
                    ctx.address_space = workload.address_space
                if tool.ctx is not None and session._shared_ctx is None:
                    session._shared_ctx = tool.ctx
        if old_map is not None:
            workload.object_map.adopt_probe_counts(old_map)
        if sanitize.is_active():
            # The restored eviction streams must equal a replay of their
            # recorded draw counts; catches rewound/double-applied RNG
            # state at the restore boundary instead of as bit drift.
            sanitize.verify_cache_rng(session.cache)
        return session


# ------------------------------------------------------------- multi-core

class MultiCoreSession:
    """N private-cache cores time-sharing one shared last-level cache.

    The multiprocessor extension of :class:`SimulationSession` (the
    paper's §5 "future work" direction): each core *is* a
    :class:`SimulationSession` — its own workload in a disjoint shifted
    address space, private L1, monitor, clock, ground truth and
    contention tallies — whose cache pipeline bottoms out in a
    :class:`~repro.cache.components.SharedLevelPort` onto one shared
    :class:`~repro.cache.components.SharedCacheLevel`. This class is
    only the scheduler: a deterministic round-robin interleaver advances
    the cores chunk by chunk (each core's ``ratio`` weights the
    schedule), so a run is a pure function of (workloads, configs,
    seeds, ratios) — snapshot/resume included.

    Every shared-level miss is classified against a per-core *shadow*
    model (the LLC as it would look if the core ran alone): a miss the
    shadow also takes is *self*; a miss the shadow would have hit is
    *contention* — induced by co-runners evicting this core's lines.
    :meth:`finalize` surfaces the classification per (core, object).

    With one core the interleaver is a no-op and the pipeline reduces to
    the single-core stack, so results are bit-identical to
    :class:`SimulationSession` over the same workload and seeds (a test
    pins this; see DESIGN.md section 13).
    """

    def __init__(
        self,
        cores: list[SimulationSession],
        shared_level,
        *,
        next_core: int = 0,
    ) -> None:
        if not cores:
            raise SimulationError("MultiCoreSession needs at least one core")
        self.cores = cores
        self.shared_level = shared_level
        #: Round-robin pointer: the core the next scheduling turn goes to.
        self._next = next_core
        self._finalized = False

    # ------------------------------------------------------------ creation

    @classmethod
    def start(
        cls,
        workloads: "Sequence[Workload]",
        *,
        llc_config,
        l1_config=None,
        backend: str | None = None,
        seed: int | None = None,
        n_region_counters: int = 10,
        multiplexed_counters: bool = False,
        cost_model: CostModel | None = None,
        chunk_size: int = 1 << 15,
        ground_truth: bool = True,
        series_bucket_cycles: int | None = None,
        max_refs: int | None = None,
        observers: Sequence[SessionObserver] = (),
        ratios: Sequence[int] | None = None,
        compiled: "Sequence[CompiledStream | None] | None" = None,
    ) -> "MultiCoreSession":
        """Open an N-core run over ``workloads`` sharing one LLC.

        Core *i*'s workload is relocated into its own address namespace
        (``i * CORE_STRIDE`` — a power-of-two stride, so line/set index
        bits are unchanged and co-runners genuinely contend for sets),
        gets a private L1 (when ``l1_config`` is set) seeded like the
        single-core two-level stack, and shares the one LLC through a
        per-core port. ``ratios[i]`` chunks of core *i* run per
        round-robin turn (default 1 each). ``compiled[i]`` replays a
        precompiled stream for core *i* — compiled against the *unshifted*
        workload; the relocation is applied here.

        ``max_refs`` bounds each core individually (the same budget the
        single-core session applies), so a 1-core multi-core run stays
        bit-identical to the session it reduces to.
        """
        from repro.cache.config import CacheConfigError
        from repro.cache.hierarchy import make_shared_level, core_pipeline
        from repro.memory.address_space import CORE_STRIDE
        from repro.workloads.compile import offset_stream

        workloads = list(workloads)
        if not workloads:
            raise SimulationError("MultiCoreSession needs at least one workload")
        for cfg in (llc_config, l1_config):
            if cfg is not None and cfg.mechanisms:
                raise CacheConfigError(
                    f"multi-core sessions do not support mechanism "
                    f"decorators yet (config has "
                    f"{'+'.join(m.describe() for m in cfg.mechanisms)}); "
                    "strip `mechanisms` from the shared/private configs"
                )
        if ratios is None:
            ratios = [1] * len(workloads)
        ratios = [int(r) for r in ratios]
        if len(ratios) != len(workloads):
            raise SimulationError(
                f"{len(workloads)} workloads but {len(ratios)} ratios"
            )
        if any(r < 1 for r in ratios):
            raise SimulationError(f"ratios must be >= 1, got {ratios}")
        if compiled is None:
            compiled_list: list["CompiledStream | None"] = [None] * len(workloads)
        else:
            compiled_list = list(compiled)
            if len(compiled_list) != len(workloads):
                raise SimulationError(
                    f"{len(workloads)} workloads but {len(compiled_list)} "
                    "compiled streams"
                )
        cost = cost_model if cost_model is not None else CostModel()

        shared = make_shared_level(llc_config, backend=backend, seed=seed)
        cores: list[SimulationSession] = []
        for core_id, workload in enumerate(workloads):
            offset = core_id * CORE_STRIDE
            # Set before start(): prepare() builds the shifted address
            # space, so the object map, ground truth and generated
            # addresses all live in the core's namespace from the start.
            workload.address_offset = offset
            stream = compiled_list[core_id]
            core = SimulationSession.start(
                workload,
                cache=core_pipeline(
                    shared, core_id, l1=l1_config, backend=backend, seed=seed
                ),
                monitor=PerformanceMonitor(
                    n_region_counters,
                    multiplexed=multiplexed_counters,
                    core_id=core_id,
                ),
                cost_model=cost,
                chunk_size=chunk_size,
                ground_truth=ground_truth,
                series_bucket_cycles=series_bucket_cycles,
                max_refs=max_refs,
                observers=observers,
                compiled=None if stream is None else offset_stream(stream, offset),
                core_id=core_id,
            )
            core.ratio = ratios[core_id]
            cores.append(core)
        return cls(cores, shared)

    # -------------------------------------------------------------- running

    @property
    def name(self) -> str:
        """Joint workload name, e.g. ``"mc(compress+ijpeg)"``."""
        return "mc(" + "+".join(c.workload.name for c in self.cores) + ")"

    @property
    def finished(self) -> bool:
        return all(core.finished for core in self.cores)

    @property
    def app_refs(self) -> int:
        """Application references simulated so far, summed over cores."""
        return sum(core.stats.app_refs for core in self.cores)

    def attach(self, tools, core: int = 0) -> None:
        """Attach instrumentation tools to one core (default core 0)."""
        self.cores[core].attach(tools)

    def step(self) -> bool:
        """Advance the next unfinished core by one scheduling turn.

        A turn is up to ``ratio`` single-core steps (chunks or interrupt
        deliveries) of one core; the interleaver then moves to the next
        core, skipping finished ones. Returns False once every core's
        stream is done.
        """
        if self._finalized:
            raise SimulationError("session already finalized")
        n = len(self.cores)
        for _ in range(n):
            core = self.cores[self._next]
            self._next = (self._next + 1) % n
            granted = 0
            while granted < core.ratio and core.step():
                granted += 1
            if granted:
                return True
        return False

    def run(
        self,
        max_steps: int | None = None,
        checkpoint_every_refs: int | None = None,
        on_checkpoint=None,
    ) -> bool:
        """Drive :meth:`step` until every core finishes: the loop, the
        arguments and the return value of :meth:`SimulationSession.run`,
        with the checkpoint cadence counted over the *combined* reference
        count. When every core could take the single-core bulk path and
        every cache level is LRU or FIFO, the run goes through
        :meth:`_run_fused` instead of stepping (DESIGN.md section 9).
        """
        return _drive(self, max_steps, checkpoint_every_refs, on_checkpoint)

    # ----------------------------------------------------------- fused path

    def _fused_ready(self) -> bool:
        """Every core's own fused gate admits it, and every level
        (private L1, shared leaf, each shadow) is LRU or FIFO."""
        return all(
            core._fused_ready() and core._chunk_invariant_kernels()
            for core in self.cores
        )

    def _run_fused(self) -> None:
        """Walk the grant schedule :meth:`step` would produce — the same
        ``ratio`` grants of the same chunks, exhausted cores dropped —
        giving each cache level calls sized by its own traffic. Each
        core's private levels run ahead over its own stream
        (:meth:`SimulationSession._fused_pieces`); the shared leaf takes
        the post-L1 pieces in grant order, in calls that close once they
        hold ``chunk_size`` references and when a core's stream ends."""
        from itertools import islice

        feeds = [core._fused_pieces() for core in self.cores]
        live = list(self.cores)
        limit = self.cores[0].chunk_size
        buffer: list[tuple[SimulationSession, int, np.ndarray, bool]] = []
        size = 0
        while live:
            for core in list(live):
                grant = list(islice(feeds[core.core_id], core.ratio))
                buffer += [(core, *piece) for piece in grant]
                size += sum(len(post) for _, post, _ in grant)
                if not grant:
                    live.remove(core)
                if size >= limit or (buffer and not grant):
                    self._fused_flush(buffer)
                    buffer, size = [], 0

    def _fused_flush(
        self, buffer: list[tuple[SimulationSession, int, np.ndarray, bool]]
    ) -> None:
        """One shared-leaf call over ``buffer``'s (core, chunk length,
        post-L1 piece, closes a private batch) entries, in grant order.
        Each core's shadow then classifies that core's share, and its
        monitor, ground truth and tallies take it. A core's ledgers commit
        when its share ends on a private-level batch boundary: only there
        do all its levels' staged counts cover the same references. Its
        stream's last piece always ends one."""
        from repro.cache.kernels.base import KernelResult

        posts = [post for _, _, post, _ in buffer]
        refs = np.concatenate(posts)
        leaf = self.shared_level.leaf._chunk_access(refs)
        owner = np.repeat([core.core_id for core, *_ in buffer], list(map(len, posts)))
        app_refs: dict[SimulationSession, int] = {}
        closes: dict[SimulationSession, bool] = {}
        for core, n_refs, _, closes_batch in buffer:
            app_refs[core] = app_refs.get(core, 0) + n_refs
            closes[core] = closes_batch
        for core, n_refs in app_refs.items():
            mine = owner == core.core_id
            post, shared_miss = refs[mine], leaf.miss_mask[mine]
            # No writebacks or prefetches to split: pipelines drop write
            # masks and shared leaves never prefetch.
            core.port._classify(
                post, KernelResult(shared_miss, len(post), int(shared_miss.sum()), 0, 0)
            )
            core._account(n_refs, post[shared_miss])
            core._attribute()
            if closes[core]:
                # The ledger's accesses trail app_refs by exactly the
                # references staged since the last commit.
                core.cache.commit_stage(
                    "app", core.stats.app_refs - core.cache.stats.accesses
                )

    # ------------------------------------------------------------- finalize

    def finalize(self):
        """Finalize every core and assemble the aggregate result.

        The aggregate :class:`~repro.sim.engine.RunResult` sums reference
        and miss counts across cores, reports the *makespan* (the slowest
        core's total cycles — per-core clocks advance independently, so
        cycle sums would double-count wall time) in ``stats.app_cycles``,
        carries the shared LLC's aggregate ledger in ``cache_stats`` and
        lists every per-core result (each with its own
        :class:`~repro.cache.contention.ContentionProfile`) in ``cores``.
        """
        from repro.cache.contention import ContentionLedger, ContentionProfile
        from repro.sim.engine import RunResult

        if self._finalized:
            raise SimulationError("session already finalized")
        self._finalized = True
        results = [core.finalize() for core in self.cores]

        merged = ContentionProfile(ledger=ContentionLedger())
        for result in results:
            profile = result.contention
            merged.ledger.merge(profile.ledger)
            # Names are namespace-qualified per core, so merges never
            # collide across cores.
            merged.self_by_object.update(profile.self_by_object)
            merged.contention_by_object.update(profile.contention_by_object)
            merged.unattributed_self += profile.unattributed_self
            merged.unattributed_contention += profile.unattributed_contention

        stats = RunStats(
            app_refs=sum(r.stats.app_refs for r in results),
            app_misses=sum(r.stats.app_misses for r in results),
            instr_refs=sum(r.stats.instr_refs for r in results),
            instr_misses=sum(r.stats.instr_misses for r in results),
            # Makespan: cores run concurrently, so the aggregate elapsed
            # time is the slowest core's clock, not the sum.
            app_cycles=max(r.stats.app_cycles for r in results),
            instr_cycles=max(r.stats.instr_cycles for r in results),
        )
        component_stats = [("llc", self.shared_level.stats.snapshot())]
        for result in results:
            if result.component_stats:
                component_stats.extend(
                    (f"c{result.core_id}.{label}", stats_snapshot)
                    for label, stats_snapshot in result.component_stats
                )
        return RunResult(
            workload_name=self.name,
            cache_config=self.shared_level.config,
            stats=stats,
            cache_stats=self.shared_level.stats.snapshot(),
            component_stats=component_stats,
            contention=merged,
            cores=results,
        )

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> SessionSnapshot:
        """Serialisable, detached copy of the whole machine's mid-run
        state: every core's :class:`CoreState`, in core order, and the
        round-robin pointer. Cores that already finished their streams
        record their final cursors."""
        return _capture(self.cores, self._next)

    @classmethod
    def restore(
        cls,
        snapshot: "SessionSnapshot | str | os.PathLike[str]",
        workloads: "Sequence[Workload]",
        observers: Sequence[SessionObserver] = (),
        compiled: "Sequence[CompiledStream | None] | None" = None,
    ) -> "MultiCoreSession":
        """Rebuild a running multi-core session from a snapshot (or a
        path to one).

        ``workloads`` must be equivalent instances (same construction
        parameters) of the snapshotted co-runners, in core order.
        ``compiled`` streams, when given, are again the *unshifted*
        compilations; per-core relocation is reapplied. The scheduler
        resumes at the snapshot's ``next_core``, so the restarted
        schedule matches the interrupted one exactly.
        """
        cores, next_core = _resume_cores(
            snapshot, workloads, observers, compiled, multicore=True
        )
        return cls(cores, cores[0].port.shared_level, next_core=next_core)
