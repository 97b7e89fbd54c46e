"""Trace-driven workload: replay a recorded reference stream.

Lets a user feed the profiling techniques a stream captured elsewhere —
a trace saved by :func:`repro.sim.trace_io.save_trace`, or one converted
from an external tool — while still declaring the memory objects the
addresses belong to (the profilers cannot attribute without an object
map).

**Trace file format** (the contract external converters target; the
reference implementation is :mod:`repro.sim.trace_io`): a compressed
NumPy ``.npz`` archive holding

* ``manifest`` — a ``uint8`` array of UTF-8 JSON:
  ``{"version": 1, "blocks": [<block-meta>, ...]}`` where each
  block-meta is ``{"cycles_per_ref": float, "label": str|null,
  "extra_cycles": int, "has_writes": bool}``, in stream order;
* ``addrs_<i>`` — one ``uint64`` array of *byte* addresses per block
  (virtual addresses in the simulated layout; line splitting happens at
  simulation time from the cache config, so traces are line-size
  agnostic);
* ``writes_<i>`` — a ``bool`` array parallel to ``addrs_<i>``, present
  exactly when block ``i``'s meta says ``has_writes`` (absent means an
  all-read block).

``version`` gates compatibility: readers reject any other value rather
than guessing. A write -> read round trip is exact
(``tests/workloads/test_trace_roundtrip.py`` pins it).
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import WorkloadError
from repro.sim.blocks import ReferenceBlock
from repro.sim.trace_io import TraceError, load_trace, save_trace
from repro.workloads.base import Workload

#: References per block when chunking a flat text trace (one block per
#: chunk keeps replay memory bounded for arbitrarily long captures).
TEXT_TRACE_BLOCK_REFS = 1 << 16

_GZIP_MAGIC = b"\x1f\x8b"
_ZIP_MAGIC = b"PK"


def _gzip_errors() -> tuple[type[Exception], ...]:
    """What reading a truncated or corrupt gzip stream raises."""
    import zlib  # already loaded by gzip

    return (OSError, EOFError, zlib.error)


def sniff_trace_format(path: "str | Path") -> str:
    """Identify a trace file by content, never by extension.

    Returns one of ``"npz"`` (the canonical :mod:`repro.sim.trace_io`
    archive), ``"npz.gz"`` (the same archive gzip-compressed), ``"text"``
    (one ``R|W <address>`` line per reference) or ``"text.gz"``.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            head = fh.read(2)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    if head == _ZIP_MAGIC:
        return "npz"
    if head == _GZIP_MAGIC:
        try:
            with gzip.open(path, "rb") as fh:
                inner = fh.read(2)
        except _gzip_errors() as exc:
            raise TraceError(f"corrupt gzip trace {path}: {exc}") from exc
        return "npz.gz" if inner == _ZIP_MAGIC else "text.gz"
    return "text"


def read_text_trace(
    source, cycles_per_ref: float = 1.0, block_refs: int = TEXT_TRACE_BLOCK_REFS
) -> list[ReferenceBlock]:
    """Parse a text address trace into reference blocks.

    The text format external capture tools most easily emit: one
    reference per line as ``R <address>`` or ``W <address>`` (hex with a
    ``0x`` prefix, or decimal, below 2**64), with ``#`` comments and
    blank lines ignored, in UTF-8. ``source`` is a path or an open file
    (text, or binary such as a gzip stream). The flat stream is chunked
    into blocks of ``block_refs`` references; write masks are attached
    only to blocks that contain at least one ``W`` line. Every defect —
    a malformed line, bytes that are not UTF-8, a damaged gzip stream —
    raises :class:`TraceError` naming the file and the line.
    """
    if block_refs <= 0:
        raise TraceError(f"block_refs must be positive, got {block_refs}")
    if hasattr(source, "read"):
        lines = source
        name = getattr(source, "name", "<trace>")
    else:
        try:
            lines = Path(source).open("rb")
        except OSError as exc:
            raise TraceError(f"cannot read trace {source}: {exc}") from exc
        name = str(source)
    addrs: list[int] = []
    writes: list[bool] = []
    blocks: list[ReferenceBlock] = []

    def flush() -> None:
        if not addrs:
            return
        arr = np.array(addrs, dtype=np.uint64)
        mask = np.array(writes, dtype=bool) if any(writes) else None
        blocks.append(
            ReferenceBlock(
                addrs=arr,
                cycles_per_ref=cycles_per_ref,
                writes=mask,
                label=f"text[{len(blocks)}]",
            )
        )
        addrs.clear()
        writes.clear()

    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise TraceError(
                        f"{name}:{lineno}: not UTF-8 text ({exc.reason})"
                    ) from None
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0].upper() not in ("R", "W"):
                raise TraceError(
                    f"{name}:{lineno}: expected 'R <addr>' or 'W <addr>', "
                    f"got {raw.strip()!r}"
                )
            try:
                addr = int(parts[1], 0)
            except ValueError:
                raise TraceError(
                    f"{name}:{lineno}: bad address {parts[1]!r}"
                ) from None
            if addr < 0:
                raise TraceError(f"{name}:{lineno}: negative address {addr}")
            if addr >> 64:
                raise TraceError(
                    f"{name}:{lineno}: address {parts[1]} does not fit in 64 bits"
                )
            addrs.append(addr)
            writes.append(parts[0].upper() == "W")
            if len(addrs) >= block_refs:
                flush()
    except (UnicodeDecodeError, *_gzip_errors()) as exc:
        # Raised by the reader itself: a damaged gzip stream, or a text
        # file object that failed to decode.
        raise TraceError(
            f"{name}: unreadable after line {lineno}: {exc}"
        ) from exc
    finally:
        if not hasattr(source, "read"):
            lines.close()
    flush()
    if not blocks:
        raise TraceError(f"{name}: trace contains no references")
    return blocks


def load_any_trace(path: "str | Path") -> list[ReferenceBlock]:
    """Load a trace in any supported format (content-sniffed).

    Canonical ``.npz`` archives load directly; gzip'd archives are
    decompressed in memory first; text traces (plain or gzip'd) go
    through :func:`read_text_trace`. A trace that is damaged, or holds
    no reference, raises :class:`TraceError` naming the file.
    """
    path = Path(path)
    fmt = sniff_trace_format(path)
    if fmt == "npz":
        blocks = load_trace(path)
    elif fmt == "npz.gz":
        # np.load wants a seekable file; a GzipFile only emulates seeks,
        # so decompress into memory (traces are chunked arrays, not huge).
        try:
            with gzip.open(path, "rb") as fh:
                buffer = io.BytesIO(fh.read())
        except _gzip_errors() as exc:
            raise TraceError(f"corrupt gzip trace {path}: {exc}") from exc
        buffer.name = str(path)
        blocks = load_trace(buffer)
    elif fmt == "text.gz":
        with gzip.open(path, "rb") as fh:
            blocks = read_text_trace(fh)
    else:
        blocks = read_text_trace(path)
    if not any(len(block) for block in blocks):
        raise TraceError(f"{path}: trace contains no references")
    return blocks


def import_trace(source: "str | Path", dest: "str | Path") -> Path:
    """Convert any supported trace into the canonical ``.npz`` archive.

    The ``repro trace import`` verb: sniff, load, re-save through
    :func:`repro.sim.trace_io.save_trace`. Round-trips are exact — the
    written archive replays the same addresses/writes in the same block
    structure the reader produced.
    """
    dest = Path(dest)
    if dest.suffix != ".npz":
        # np.savez appends .npz itself; mirror that so we return the
        # path that actually exists afterwards.
        dest = dest.with_suffix(dest.suffix + ".npz")
    save_trace(dest, load_any_trace(source))
    return dest


def derive_layout(
    blocks: list[ReferenceBlock],
    max_objects: int = 8,
    min_gap: int = 1 << 16,
) -> dict[str, tuple[int, int]]:
    """A plausible object layout for an unannotated trace.

    Clusters the referenced cache lines by address gaps (a new object
    starts wherever consecutive touched lines are more than ``min_gap``
    bytes apart), largest clusters first, at most ``max_objects`` named
    ``t0`` .. ``tN`` in address order. A convenience for ``repro trace
    info`` and for bootstrapping a :class:`TraceWorkload` layout —
    real converters should declare the program's actual symbols.
    """
    if not blocks:
        raise TraceError("cannot derive a layout from an empty trace")
    lines = np.unique(
        np.concatenate([b.addrs for b in blocks]) & ~np.uint64(63)
    )
    gaps = np.flatnonzero(np.diff(lines) > np.uint64(min_gap))
    starts = np.concatenate([[0], gaps + 1])
    ends = np.concatenate([gaps, [len(lines) - 1]])
    clusters = [
        (int(lines[s]), int(lines[e]) + 64 - int(lines[s]), int(e - s + 1))
        for s, e in zip(starts, ends)
    ]
    clusters.sort(key=lambda c: -c[2])
    kept = sorted(clusters[:max_objects])
    return {
        f"t{i}": (base, size) for i, (base, size, _) in enumerate(kept)
    }


class TraceWorkload(Workload):
    """Replays blocks from a trace file (or an in-memory block list).

    ``layout`` declares the named variables the trace's addresses fall
    into: ``{"name": (base, size)}``. Bases must lie inside the standard
    data segment (globals) or heap segment (blocks are then registered
    through the allocator so heap-map code paths are exercised).
    """

    name = "trace"
    #: A replayed trace is already array-backed, and an arbitrary user
    #: trace (file path or in-memory blocks) cannot be content-addressed
    #: by constructor parameters — so stream compilation is opted out
    #: rather than fingerprinted unsoundly (see ``workload_params``).
    compiled_stream_safe = False
    #: Recorded traces are frozen address streams: replaying one against
    #: a decorated stack cannot feed back into the stream, so mechanism
    #: x size sweeps over traces are sound even though compilation is
    #: not (the marker ROADMAP item 4's trace ingestion relies on).
    mechanism_sweep_safe = True

    def __init__(
        self,
        trace: str | Path | list[ReferenceBlock],
        layout: dict[str, tuple[int, int]],
        seed: int | None = None,
    ) -> None:
        super().__init__(seed=seed)
        if not layout:
            raise WorkloadError("trace workload needs at least one declared object")
        self._trace_source = trace
        self.layout = dict(layout)
        self._blocks: list[ReferenceBlock] | None = (
            list(trace) if isinstance(trace, list) else None
        )

    def _declare(self) -> None:
        data = self.address_space.data
        heap = self.address_space.heap
        # Declare objects at their exact recorded addresses. The symbol
        # table lays variables out itself, so exact placement goes through
        # the object map directly for data-segment objects and through a
        # placement-checked malloc for heap ones.
        from repro.memory.objects import MemoryObject, ObjectKind

        for name, (raw, size) in sorted(self.layout.items(), key=lambda kv: kv[1][0]):
            # Recorded traces hold absolute addresses; relocating into a
            # per-core namespace (multi-core sessions) shifts the whole
            # capture — layout here, replayed blocks in _generate.
            base = raw + self.address_offset
            if data.contains(base):
                self.object_map.add_global(
                    MemoryObject(name=name, base=base, size=size, kind=ObjectKind.GLOBAL)
                )
            elif heap.contains(base):
                # Reproduce the block via the allocator when it lands where
                # first-fit would put it; otherwise register it directly.
                blk = self.heap.malloc(size, name=name)
                if blk.base != base:
                    self.heap.free(blk)
                    self.object_map.observe_alloc(
                        "alloc",
                        MemoryObject(
                            name=name, base=base, size=size, kind=ObjectKind.HEAP
                        ),
                    )
            else:
                raise WorkloadError(
                    f"object {name!r} at {base:#x} is outside the data and "
                    "heap segments"
                )

    def _generate(self) -> Iterator[ReferenceBlock]:
        if self._blocks is None:
            # Content-sniffed, so compressed captures replay without an
            # explicit `repro trace import` conversion step.
            self._blocks = load_any_trace(self._trace_source)
        if not self.address_offset:
            yield from self._blocks
            return
        offset = np.uint64(self.address_offset)
        for block in self._blocks:
            yield ReferenceBlock(
                addrs=block.addrs + offset,
                cycles_per_ref=block.cycles_per_ref,
                writes=block.writes,
                label=block.label,
                extra_cycles=block.extra_cycles,
            )


class RecursiveCalls(Workload):
    """A recursive kernel exercising the stack model (paper section 5).

    ``fib``-style recursion to ``depth``: every activation allocates the
    locals ``frame_buf`` (a scratch array) and ``acc`` on the simulated
    stack and touches them, plus a shared global table. All instances of
    a local share one aggregation name (``fib:frame_buf``), so sampling
    attributes the whole recursion's stack traffic to two source-level
    variables — the paper's proposed aggregation, working end-to-end.
    """

    name = "recursive"
    cycles_per_ref = 10.0

    def __init__(
        self,
        scale: float = 1.0,
        seed: int | None = None,
        depth: int = 12,
        repeats: int = 30,
        buf_bytes: int = 8192,
    ) -> None:
        super().__init__(scale=scale, seed=seed)
        self.depth = depth
        self.repeats = repeats
        self.buf_bytes = buf_bytes

    def _declare(self) -> None:
        self.symbols.declare("memo_table", self.scaled(512 * 1024))

    def _descend(self, level: int) -> Iterator[ReferenceBlock]:
        import numpy as np

        frame = self.stack.push_frame(
            "fib", {"frame_buf": self.buf_bytes, "acc": 64}
        )
        buf = frame.locals[0]
        acc = frame.locals[1]
        # Touch the frame buffer (line stride) and the accumulator.
        buf_addrs = np.arange(buf.base, buf.end, 64, dtype=np.uint64)
        acc_addrs = np.full(4, acc.base, dtype=np.uint64)
        yield ReferenceBlock(
            addrs=np.concatenate([buf_addrs, acc_addrs]),
            cycles_per_ref=self.cycles_per_ref,
            label=f"fib[{level}]",
        )
        # Global memo probe.
        memo = self.symbols["memo_table"]
        yield ReferenceBlock(
            addrs=np.arange(memo.base, memo.base + 64 * 32, 64, dtype=np.uint64)
            + np.uint64((level * 4096) % max(64, memo.size - 64 * 32)),
            cycles_per_ref=self.cycles_per_ref,
            label="memo",
        )
        if level > 0:
            yield from self._descend(level - 1)
        self.stack.pop_frame()

    def _generate(self) -> Iterator[ReferenceBlock]:
        for _ in range(self.repeats):
            yield from self._descend(self.depth)
