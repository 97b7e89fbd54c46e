"""Workload base class: a deterministic reference-stream generator bound
to its own simulated address space.

A workload owns the full memory substrate for one application — address
space, symbol table, heap allocator, object map, stack model — and yields
:class:`ReferenceBlock` chunks from :meth:`blocks`. Subclasses implement
:meth:`_declare` (lay out the application's data structures) and
:meth:`_generate` (emit the reference stream).
"""

from __future__ import annotations

import abc
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.memory.address_space import AddressSpace
from repro.memory.allocator import HeapAllocator
from repro.memory.object_map import ObjectMap
from repro.memory.stack import StackModel
from repro.memory.symbol_table import SymbolTable
from repro.sim.blocks import ReferenceBlock


class Workload(abc.ABC):
    """Base for all application models.

    ``scale`` multiplies data-structure sizes (1.0 targets a 256 KiB
    cache; use ~8.0 with the paper's 2 MB geometry). ``seed`` fixes any
    stochastic access decisions so runs are exactly reproducible.
    """

    name = "workload"
    #: Non-memory cycles charged per reference (sets the app's
    #: misses-per-Mcycle band; see DESIGN.md on miss-rate calibration).
    cycles_per_ref: float = 5.0
    #: Whether the reference stream may be lowered to frozen arrays by
    #: :mod:`repro.workloads.compile`. Set False on workloads whose
    #: generator mutates the substrate mid-stream (heap churn): replaying
    #: their stream from arrays would desync ground-truth attribution.
    #: A dynamic guard in the compiler backstops this flag.
    compiled_stream_safe: bool = True
    #: Whether the workload is valid under mechanism x size sweeps
    #: (``repro mechanisms``): its reference stream must not depend on
    #: the cache configuration it runs against. True for every stream
    #: that is a pure function of (constructor kwargs, seed) — which is
    #: all of them today; the flag exists so a future feedback-directed
    #: workload can opt out instead of silently invalidating the sweep's
    #: "identical stream" subtraction.
    mechanism_sweep_safe: bool = True

    def __init__(self, scale: float = 1.0, seed: int | None = None) -> None:
        if scale <= 0:
            raise WorkloadError(f"scale must be positive, got {scale}")
        self.scale = scale
        self.seed = seed
        #: Base-address shift applied to the whole substrate at
        #: :meth:`prepare` time. Deliberately *not* a constructor
        #: parameter: the reference stream is a pure function of
        #: (kwargs, seed) and the offset is a relocation of that same
        #: stream, so compiled-stream fingerprints stay
        #: offset-free and multi-core sessions can share one compiled
        #: stream across cores. Set by `MultiCoreSession` before prepare.
        self.address_offset: int = 0
        self._prepared = False
        self._consumed = False
        self.address_space: AddressSpace | None = None
        self.symbols: SymbolTable | None = None
        self.object_map: ObjectMap | None = None
        self.heap: HeapAllocator | None = None
        self.stack: StackModel | None = None

    # ------------------------------------------------------------- lifecycle

    def prepare(self) -> None:
        """Build the memory substrate and lay out data structures (idempotent)."""
        if self._prepared:
            return
        self.address_space = AddressSpace.with_offset(self.address_offset)
        self.symbols = SymbolTable(self.address_space.data)
        self.object_map = ObjectMap()
        self.heap = HeapAllocator(self.address_space.heap)
        self.heap.add_observer(self.object_map.observe_alloc)
        self.stack = StackModel(self.address_space.stack, self.object_map)
        self._declare()
        self.object_map.add_globals(self.symbols.objects)
        self.object_map.freeze_globals()
        self._prepared = True

    def blocks(self) -> Iterator[ReferenceBlock]:
        """The application's reference stream (prepares on first use).

        Opening the stream marks the instance *consumed*: generators may
        mutate the substrate as they run (heap churn, cursor state), so a
        second run over the same instance must :meth:`reset` first to see
        the same stream again. The engine does this automatically.
        """
        self.prepare()
        self._consumed = True
        return self._generate()

    @property
    def consumed(self) -> bool:
        """True once :meth:`blocks` has been opened since the last reset."""
        return self._consumed

    def reset(self) -> None:
        """Tear down the substrate so the next run is a deterministic replay.

        Rebuilding from scratch (rather than trying to undo generator side
        effects) guarantees run-twice == run-once-twice: every run sees a
        freshly declared address space, heap and object map.
        """
        self._prepared = False
        self._consumed = False
        self.address_space = None
        self.symbols = None
        self.object_map = None
        self.heap = None
        self.stack = None
        self._on_reset()

    # ------------------------------------------------------------- subclass

    @abc.abstractmethod
    def _declare(self) -> None:
        """Declare globals / perform startup heap allocations."""

    @abc.abstractmethod
    def _generate(self) -> Iterator[ReferenceBlock]:
        """Yield the reference stream."""

    def _on_reset(self) -> None:
        """Hook for subclasses holding state outside the substrate
        (e.g. lists of heap handles) to clear it on :meth:`reset`."""

    # --------------------------------------------------------------- helpers

    def scaled(self, nbytes: int, align: int = 4096) -> int:
        """Scale a byte size and round up to ``align``."""
        value = int(nbytes * self.scale)
        return max(align, (value + align - 1) & ~(align - 1))

    def block(self, addrs: np.ndarray, label: str = "", extra_cycles: int = 0) -> ReferenceBlock:
        """Wrap an address array in a block with this workload's cycle cost."""
        return ReferenceBlock(
            addrs=addrs,
            cycles_per_ref=self.cycles_per_ref,
            label=label,
            extra_cycles=extra_cycles,
        )

    def describe(self) -> str:
        self.prepare()
        objs = self.object_map.all_objects()
        total = sum(o.size for o in objs)
        return (
            f"{self.name}: {len(objs)} objects, {total / 1024:.0f} KiB data, "
            f"cycles/ref={self.cycles_per_ref}"
        )
