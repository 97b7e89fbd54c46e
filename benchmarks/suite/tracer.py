"""Span tracer for the benchmark's traced runs.

The traced run wraps the public entry points of each program layer from
here, the benchmark's own code: nothing under ``src/`` knows it is being
traced. Every wrapped call records one span (name, start, end, parent
span, cell id) in flat in-memory arrays; the benchmark writes them out
when the run ends and derives per-layer *self* time from them:

    self(span) = duration(span) - sum(duration(child) for its children)

A call into the layer that is already the innermost open span (for
example ``Pipeline.access`` calling its leaf's ``access``, or a
multi-core step calling a per-core step) folds into that outer span
instead of opening a new one, so a layer's recursion never shows up as
its own child.

Only chunk-level entry points are wrapped (``access`` on a whole address
array, one ``observe`` per chunk); per-line calls such as
``access_line`` are not, because a span per simulated reference would
cost more than the work it measures.
"""

from __future__ import annotations

import functools
import time
from array import array
from typing import Callable

import numpy as np


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.cell_of = array("q")
        #: Cell id stamped on new spans (-1: outside any cell) and the
        #: label of every cell id handed out so far.
        self.cell = -1
        self.cell_labels: list[str] = []
        #: Work units done per span name, e.g. references ``access`` consumed.
        self.work: dict[str, int] = {}
        #: Calls of entry points that are counted but not spanned.
        self.calls: dict[str, int] = {}
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.work.setdefault(name, 0)
        return self._ids[name]

    # ------------------------------------------------------------ wrappers

    def wrap(self, name: str, fn: Callable, weigh: Callable | None = None) -> Callable:
        """``fn`` recording one span per call (folded when nested in itself).

        ``weigh(result)`` returns the work units of one unfolded call.
        """
        nid = self._id(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end, cell_of, clock = self.start, self.end, self.cell_of, self.clock
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            cell_of.append(self.cell)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if weigh is not None:
                work[name] += weigh(result)
            return result

        return traced

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """``fn`` returning an iterator whose every ``next`` is one span."""
        step = self.wrap(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)

            def pull():
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    yield item

            return pull()

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` counting its calls in :attr:`calls` without a span."""
        self.calls.setdefault(name, 0)
        calls = self.calls

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def reset_counts(self) -> None:
        """Zero :attr:`work` and :attr:`calls` (spans are kept)."""
        for counts in (self.work, self.calls):
            for name in counts:
                counts[name] = 0

    # ------------------------------------------------------------- patching

    def patch(self, owner, attr: str, name: str, kind: str = "span", weigh=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its
        traced form; :meth:`uninstall` puts the original back.

        ``kind`` is ``"span"``, ``"iter"`` (see :meth:`wrap_iter`) or
        ``"count"`` (see :meth:`counted`). Class-, static- and plain
        methods are all unwrapped from the owner's own ``__dict__``.
        """
        original = vars(owner)[attr]
        fn = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        if kind == "span":
            wrapped = self.wrap(name, fn, weigh)
        elif kind == "iter":
            wrapped = self.wrap_iter(name, fn)
        else:
            wrapped = self.counted(name, fn)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # --------------------------------------------------------------- output

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (times in ns)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "cell": np.frombuffer(self.cell_of, dtype=np.int64).copy(),
        }

    def enter_cell(self, label: str) -> int:
        """Stamp later spans with a new cell id; returns the previous id."""
        outer = self.cell
        self.cell = len(self.cell_labels)
        self.cell_labels.append(label)
        return outer

    def save(self, path) -> None:
        """Write the spans, span names and cell labels to ``path`` (.npz)."""
        np.savez(
            path,
            names=np.array(self.names),
            cell_labels=np.array(self.cell_labels),
            **self.arrays(),
        )


def self_times(
    spans: dict[str, np.ndarray], n_names: int, since_ns: int | None = None
) -> np.ndarray:
    """Self nanoseconds per span name.

    ``spans`` holds the :meth:`Tracer.arrays` columns. With ``since_ns``,
    only spans that started at or after it are summed (their children
    start later, so the subtraction stays within the selection).
    """
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    names = spans["name_id"]
    if since_ns is not None:
        keep = spans["start"] >= since_ns
        own, names = own[keep], names[keep]
    return np.bincount(names, weights=own, minlength=n_names)


def span_counts(
    spans: dict[str, np.ndarray], n_names: int, since_ns: int | None = None
) -> np.ndarray:
    """Number of (unfolded) spans per span name."""
    names = spans["name_id"]
    if since_ns is not None:
        names = names[spans["start"] >= since_ns]
    return np.bincount(names, minlength=n_names)


def _subclasses(cls) -> list:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _own_concrete(cls, attr: str) -> bool:
    fn = vars(cls).get(attr)
    return fn is not None and not getattr(fn, "__isabstractmethod__", False)


def _consumed(result) -> int:
    return result.consumed


def install(tracer: Tracer) -> None:
    """Wrap the repro entry points of every layer (undo: ``uninstall``).

    Span names follow the package layout of ``src/repro``: ``workloads``,
    ``cache``, ``hpm``, ``core``, ``sim`` and ``experiments``.
    """
    from repro.cache.attribution import GroundTruth
    from repro.cache.base import CacheModel
    from repro.experiments import cache_store, mechanisms, multicore, parallel, runner, table1
    from repro.hpm.monitor import PerformanceMonitor
    from repro.sim.engine import Simulator
    from repro.sim.instrumentation import InstrumentationTool
    from repro.sim.session import MultiCoreSession, SimulationSession
    from repro.workloads import compile as stream_compile
    from repro.workloads.base import Workload

    # workloads: stream compilation (parallel.py binds the name at import)
    # and every block pulled from a workload generator.
    tracer.patch(stream_compile, "compiled_stream_for", "workloads.compile")
    tracer.patch(parallel, "compiled_stream_for", "workloads.compile")
    tracer.patch(Workload, "blocks", "workloads.stream", kind="iter")
    # cache: every model's chunk-level access; ground-truth attribution.
    for cls in _subclasses(CacheModel):
        if _own_concrete(cls, "access"):
            tracer.patch(cls, "access", "cache.access", weigh=_consumed)
    tracer.patch(GroundTruth, "observe", "cache.attribution")
    tracer.patch(GroundTruth, "profile", "cache.attribution")
    # hpm: the counter bank sees every chunk's misses.
    tracer.patch(PerformanceMonitor, "observe", "hpm.observe")
    # core: the measurement tools' interrupt handlers.
    for cls in _subclasses(InstrumentationTool):
        for attr in ("on_miss_overflow", "on_timer"):
            if _own_concrete(cls, attr):
                tracer.patch(cls, attr, "core.handler")
    # sim: session creation, the step loop and finalize.
    for cls in (SimulationSession, MultiCoreSession):
        for attr in ("start", "run", "step"):
            tracer.patch(cls, attr, "sim")
        tracer.patch(cls, "finalize", "sim.finalize")
    tracer.patch(Simulator, "start_session", "sim")
    tracer.patch(Simulator, "run", "sim")
    tracer.patch(SimulationSession, "_run_fused", "sim.fused_runs", kind="count")
    # experiments: the experiment functions, the per-cell task layer (runner.py binds
    # execute_task at import) and the on-disk result/stream store.
    tracer.patch(runner.ExperimentRunner, "run_task", "experiments")
    tracer.patch(runner, "execute_task", "experiments")
    tracer.patch(table1, "run_table1", "experiments")
    tracer.patch(mechanisms, "run_mechanisms", "experiments")
    tracer.patch(multicore, "run_multicore", "experiments")
    tracer.patch(cache_store.ResultCache, "get", "experiments.result_cache")
    tracer.patch(cache_store.ResultCache, "put", "experiments.result_cache")
