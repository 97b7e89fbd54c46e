"""Exact set-associative cache with LRU/FIFO/random replacement.

This is the model for all experiments — the paper simulates "a
single-level set associative cache". The hit/miss engine itself lives in
:mod:`repro.cache.kernels` behind a pluggable *backend* selector:

* ``"reference"`` — the original list-of-lists kernel, oldest-first per
  set, whose loop steps only through references that can change state;
* ``"array"`` — flat-array state with vectorised fast paths for
  streaming chunks;
* ``"auto"`` — picks one of the two from what it sees of the stream.

All three are bit-identical. The semantics are defined by the plain
per-reference loop of ``tests/reference_oracle.py``: the differential
tests hold the reference kernel to it call by call, and the other
backends to the reference kernel.

Beyond the paper's model, two optional realism features are provided for
the ablation benches:

* **write-back / write-allocate** — pass a ``writes`` mask to ``access``
  and dirty lines are tracked; evicting a dirty line counts a writeback
  (``stats.writebacks``). The miss classification is unchanged (fills
  happen on write misses either way), so the paper's results are
  unaffected unless a consumer inspects writeback counts.
* **next-line prefetch** — ``prefetch_next_line=True`` fills line ``L+1``
  whenever line ``L`` misses, modelling a simple hardware prefetcher;
  used to show the profiling techniques' rankings survive prefetching.

Both features are honoured identically by every backend.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize
from repro.cache.base import AccessResult
from repro.cache.components import CacheComponent
from repro.cache.config import CacheConfig
from repro.cache.kernels import kernel_for_config, resolve_backend
from repro.cache.kernels.base import KernelResult
from repro.errors import SimulationError


class SetAssociativeCache(CacheComponent):
    """Exact A-way set-associative cache over a pluggable kernel."""

    def __init__(
        self,
        config: CacheConfig,
        seed: int | None = None,
        prefetch_next_line: bool = False,
        backend: str | None = None,
    ) -> None:
        super().__init__(config)
        self.prefetch_next_line = prefetch_next_line
        #: Kernel backend in use; ``backend`` overrides ``config.backend``.
        self.backend = resolve_backend(
            backend if backend is not None else config.backend
        )
        self._kernel = kernel_for_config(
            self.backend,
            config,
            seed=seed,
            prefetch_next_line=prefetch_next_line,
        )
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0

    def reset(self) -> None:
        self._kernel.reset()

    def contents_line_count(self) -> int:
        return self._kernel.contents_line_count()

    def dirty_line_count(self) -> int:
        """Number of resident dirty lines (write-back bookkeeping)."""
        return self._kernel.dirty_line_count()

    def lines_in_set(self, set_idx: int) -> list[int]:
        """Line numbers resident in a set, oldest/least-recent first."""
        return self._kernel.lines_in_set(set_idx)

    def contains_addr(self, addr: int) -> bool:
        """Whether the line holding byte ``addr`` is resident."""
        return self._kernel.contains_line(addr >> self.config.line_bits)

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        tag: str = "app",
        writes: np.ndarray | None = None,
    ) -> AccessResult:
        n = len(addrs)
        if n == 0:
            return AccessResult(np.zeros(0, dtype=bool), 0)
        res = self._chunk_access(addrs, miss_budget=miss_budget, writes=writes)
        self.commit_stage(tag, res.consumed)
        return AccessResult(res.miss_mask, res.consumed)

    # --------------------------------------------------- component protocol

    def begin_stage(self) -> None:
        self._staged_misses = 0
        self._staged_writebacks = 0
        self._staged_prefetches = 0

    def commit_stage(self, tag: str, accesses: int) -> None:
        self.stats.record(
            tag,
            accesses,
            self._staged_misses,
            writebacks=self._staged_writebacks,
            prefetches=self._staged_prefetches,
        )
        self.begin_stage()
        if sanitize.is_active():
            sanitize.check_component(self)

    def _chunk_access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        if victims and self.prefetch_next_line:
            # Prefetch fills evict too, outside any miss: no per-miss
            # victim report can describe them.
            raise SimulationError(
                "prefetch_next_line cannot combine with decorator "
                "components; wrap the cache in StreamBuffers instead"
            )
        res = self._kernel.access(
            addrs, miss_budget=miss_budget, writes=writes, victims=victims
        )
        self._staged_misses += res.misses
        self._staged_writebacks += res.writebacks
        self._staged_prefetches += res.prefetches
        return res

    def state_snapshot(self) -> object:
        return self._kernel.snapshot()

    def state_restore(self, state: object) -> None:
        self._kernel.restore(state)
