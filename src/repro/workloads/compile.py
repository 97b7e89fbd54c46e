"""Stream compilation: lower a workload into frozen reference arrays.

A workload's :meth:`~repro.workloads.base.Workload.blocks` generator is a
deterministic function of its constructor parameters, but replaying it is
pure-Python work — loop bookkeeping, address arithmetic, array assembly —
that the engine pays again on every run. :func:`compile_workload` runs
the generator **once** and captures the result as a
:class:`CompiledStream`: the same :class:`~repro.sim.blocks.ReferenceBlock`
sequence, with every address/write array materialised, made contiguous
and frozen read-only. A session driven from a compiled stream
(``SimulationSession.start(..., compiled=...)``) skips the generator
entirely and — when no tools/observers need per-chunk interleaving —
feeds the cache in bulk, which is where the end-to-end speedup comes
from (see DESIGN.md section 9).

Compiled streams are *bit-identity preserving* by construction: they are
the very arrays the generator produced, and the session replays the
generator path's chunk boundaries wherever those boundaries are
observable (RANDOM-policy eviction pools).

Two safety rules keep compilation honest:

* a workload class can opt out via ``compiled_stream_safe = False`` when
  its generator is *supposed* to mutate the substrate mid-stream (heap
  churn); replaying such a stream from arrays would leave the object map
  without the churned objects, silently skewing ground-truth attribution;
* even for opted-in classes, :func:`compile_workload` watches the heap
  allocator while the generator runs and refuses (``StreamCompileError``)
  if any alloc/free fires — the dynamic guard catches workloads whose
  churn the static flag missed.

Cache layout: streams are content-addressed by :func:`stream_fingerprint`
— workload class, every constructor parameter read back off the instance,
and the repository code-version tag — so any edit to workload/sim sources
invalidates cached streams exactly like it invalidates cached results.
:func:`workload_params` refuses a workload whose parameters do not
round-trip, and the fingerprint tests pin the payload keys.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.sim.blocks import ReferenceBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

#: Bumped whenever the CompiledStream layout changes, so stale cache
#: entries are recompiled rather than misread.
STREAM_FORMAT_VERSION = 1


class StreamCompileError(WorkloadError):
    """Raised when a workload cannot be lowered to a compiled stream."""


# ------------------------------------------------------------ fingerprint

def workload_params(workload: "Workload") -> dict[str, object]:
    """Constructor parameters of ``workload``, read back off the instance.

    Every ``__init__`` parameter must round-trip through an instance
    attribute of the same name; a parameter that does not is an error
    here — silently omitting it would let two different streams share
    one fingerprint.
    """
    cls = type(workload)
    params: dict[str, object] = {}
    for name, param in inspect.signature(cls.__init__).parameters.items():
        if name == "self":
            continue
        if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
            raise StreamCompileError(
                f"{cls.__name__}.__init__ uses *args/**kwargs; its streams "
                "cannot be content-addressed by parameters"
            )
        try:
            params[name] = getattr(workload, name)
        except AttributeError:
            raise StreamCompileError(
                f"{cls.__name__} does not store constructor parameter "
                f"{name!r} as an attribute; stream fingerprints require "
                "the parameter round-trip convention"
            ) from None
    return params


def stream_fingerprint(workload: "Workload") -> str:
    """Content address of ``workload``'s compiled reference stream.

    Keyed by the workload class, every constructor parameter and the
    repository code-version tag, so both parameter changes and source
    edits (workloads/, sim/, memory/ …) produce fresh streams.
    """
    from repro.experiments.cache_store import code_version_tag, stable_hash

    payload = {
        "kind": "compiled-stream",
        "format": STREAM_FORMAT_VERSION,
        "workload": workload.name,
        "class": f"{type(workload).__module__}.{type(workload).__qualname__}",
        "params": workload_params(workload),
        "version": code_version_tag(),
    }
    return stable_hash(payload)


# --------------------------------------------------------- compiled stream

@dataclass(frozen=True)
class CompiledStream:
    """A workload's full reference stream, materialised and frozen.

    ``blocks`` are ordinary :class:`ReferenceBlock` objects whose arrays
    are read-only copies of what the generator produced; ``fingerprint``
    is the content address the stream was compiled under, which sessions
    verify against the workload they are asked to drive.
    """

    workload_name: str
    fingerprint: str
    blocks: tuple[ReferenceBlock, ...]
    n_refs: int

    def __len__(self) -> int:
        return self.n_refs

    def iter_blocks(self) -> Iterator[ReferenceBlock]:
        return iter(self.blocks)


def _frozen_copy(arr: np.ndarray | None, dtype) -> np.ndarray | None:
    if arr is None:
        return None
    out = np.ascontiguousarray(arr, dtype=dtype).copy()
    out.setflags(write=False)
    return out


def _freeze(stream: CompiledStream) -> CompiledStream:
    """Re-assert read-only flags (pickle round-trips drop them)."""
    for b in stream.blocks:
        b.addrs.setflags(write=False)
        if b.writes is not None:
            b.writes.setflags(write=False)
    return stream


# --------------------------------------------------------------- compiler

def compile_workload(
    workload: "Workload", fingerprint: str | None = None
) -> CompiledStream:
    """Run ``workload``'s generator once and capture it as arrays.

    The workload is reset afterwards, so the caller can immediately start
    a (compiled or generator) session over the same instance. Raises
    :class:`StreamCompileError` for classes that opt out via
    ``compiled_stream_safe = False`` and for any workload whose generator
    touches the heap allocator mid-stream.
    """
    cls = type(workload)
    if not getattr(cls, "compiled_stream_safe", True):
        raise StreamCompileError(
            f"{cls.__name__} is marked compiled_stream_safe=False "
            "(its generator mutates the substrate mid-stream); run it "
            "through the generator path instead"
        )
    if fingerprint is None:
        fingerprint = stream_fingerprint(workload)
    if workload.consumed:
        workload.reset()
    workload.prepare()

    churn: list[str] = []
    workload.heap.add_observer(lambda event, obj: churn.append(event))
    blocks: list[ReferenceBlock] = []
    n_refs = 0
    for b in workload.blocks():
        if churn:
            workload.reset()
            raise StreamCompileError(
                f"{cls.__name__} performed heap {churn[0]} while "
                "generating its stream; compiled replay would desync "
                "ground-truth attribution (set compiled_stream_safe=False)"
            )
        frozen = ReferenceBlock(
            addrs=_frozen_copy(b.addrs, np.uint64),
            cycles_per_ref=b.cycles_per_ref,
            writes=_frozen_copy(b.writes, bool),
            label=b.label,
            extra_cycles=b.extra_cycles,
        )
        # __post_init__'s ascontiguousarray is a no-op on an already
        # contiguous same-dtype array, so the flags survive construction.
        frozen.addrs.setflags(write=False)
        blocks.append(frozen)
        n_refs += len(frozen)
    if churn:
        workload.reset()
        raise StreamCompileError(
            f"{cls.__name__} performed heap {churn[0]} while generating "
            "its stream; compiled replay would desync ground-truth "
            "attribution (set compiled_stream_safe=False)"
        )
    # Drop the churn-guard observer (and generator cursor state) so the
    # next session over this instance sees a pristine substrate.
    workload.reset()
    return CompiledStream(
        workload_name=workload.name,
        fingerprint=fingerprint,
        blocks=tuple(blocks),
        n_refs=n_refs,
    )


def offset_stream(stream: CompiledStream, offset: int) -> CompiledStream:
    """``stream`` relocated by ``offset`` bytes (multi-core namespaces).

    Every address a workload generates is segment-base arithmetic, and
    ``Workload.address_offset`` shifts every segment base wholesale — so
    shifting a compiled stream's addresses is exactly the stream the
    offset workload would compile to (a test pins this equivalence).
    Done here, co-runners share one cached compilation of the unoffset
    stream instead of compiling (and caching) once per core slot; the
    fingerprint is kept because ``address_offset`` is deliberately not a
    fingerprinted constructor parameter (see
    :attr:`repro.workloads.base.Workload.address_offset`).
    """
    if offset == 0:
        return stream
    if offset < 0:
        raise StreamCompileError(f"stream offset must be >= 0, got {offset:#x}")
    shifted: list[ReferenceBlock] = []
    for b in stream.blocks:
        block = ReferenceBlock(
            addrs=b.addrs + np.uint64(offset),
            cycles_per_ref=b.cycles_per_ref,
            writes=b.writes,
            label=b.label,
            extra_cycles=b.extra_cycles,
        )
        block.addrs.setflags(write=False)
        shifted.append(block)
    return CompiledStream(
        workload_name=stream.workload_name,
        fingerprint=stream.fingerprint,
        blocks=tuple(shifted),
        n_refs=stream.n_refs,
    )


def compiled_stream_for(
    workload: "Workload", cache_dir: str | Path | None = None
) -> CompiledStream:
    """Compiled stream for ``workload``, via the on-disk stream cache.

    ``cache_dir`` is the experiments cache root (e.g. ``.repro-cache``);
    streams live under ``<cache_dir>/streams`` in the same
    content-addressed pickle layout as cached results. ``None`` compiles
    without caching.
    """
    fingerprint = stream_fingerprint(workload)
    if cache_dir is None:
        return compile_workload(workload, fingerprint=fingerprint)
    from repro.experiments.cache_store import ResultCache

    store = ResultCache(Path(cache_dir) / "streams")
    hit = store.get(fingerprint)
    if isinstance(hit, CompiledStream) and hit.fingerprint == fingerprint:
        return _freeze(hit)
    compiled = compile_workload(workload, fingerprint=fingerprint)
    store.put(fingerprint, compiled)
    return compiled
