"""The "auto" kernel: picks reference vs array from observed behaviour.

The array kernel wins on every workload shape except one: RANDOM
replacement under heavy conflict. RANDOM evictions must consume the
shared eviction pool in global miss order, which defeats both the
guaranteed-miss run phase and the per-set rounds tail, leaving the
array kernel's sequential fallback — strictly slower than the reference
loop it mirrors, because it also pays array/list conversion per chunk.
Miss-heavy RANDOM streams are exactly where that fallback dominates.

``AutoKernel`` therefore starts on an inner :class:`ArrayKernel` and
watches the first :data:`PROBE_REFS` references. When the probe window
closes it commits: if the policy is RANDOM and the observed miss density
exceeds :data:`SWITCH_MISS_DENSITY`, the full kernel state (sets, dirty
lines, eviction pool, RNG) is transplanted into a
:class:`ReferenceKernel`; otherwise the array kernel is kept. Both
backends are bit-identical, so the choice — and its timing — can never
change results, only throughput; the transplant preserves the seeded
RANDOM eviction stream exactly.

Snapshots record the probe state and the active backend, so a restored
session resumes with the same decision (made or pending) it saved.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.cache.kernels.base import KernelResult, SetKernel
from repro.cache.kernels.flat import ArrayKernel
from repro.cache.kernels.reference import ReferenceKernel
from repro.cache.policies import ReplacementPolicy
from repro.errors import SimulationError

#: References observed before committing to a backend.
PROBE_REFS = 1 << 16

#: Probe-window miss density above which RANDOM replacement switches to
#: the reference kernel (conflict-heavy RANDOM streams run sequentially
#: in the array kernel, with conversion overhead on top).
SWITCH_MISS_DENSITY = 0.2

_SNAPSHOT_TAG = "auto-v1"


class AutoKernel(SetKernel):
    """Backend-picking kernel; delegates to reference or array."""

    name = "auto"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._inner: SetKernel = ArrayKernel(**kwargs)
        self._probe_refs = 0
        self._probe_misses = 0
        self._decided = False

    # ----------------------------------------------------------- delegation

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        result = self._inner.access(addrs, miss_budget, writes, victims)
        if not self._decided:
            self._probe_refs += result.consumed
            self._probe_misses += result.misses
            if self._probe_refs >= PROBE_REFS:
                self._decide()
        return result

    def reset(self) -> None:
        # Cold start keeps the committed backend (and, per the kernel
        # contract, the RNG/pool): the decision is a pure speed knob.
        self._inner.reset()

    def contents_line_count(self) -> int:
        return self._inner.contents_line_count()

    def dirty_line_count(self) -> int:
        return self._inner.dirty_line_count()

    def lines_in_set(self, set_idx: int) -> list[int]:
        return self._inner.lines_in_set(set_idx)

    def contains_line(self, line: int) -> bool:
        return self._inner.contains_line(line)

    def snapshot(self) -> object:
        return (
            _SNAPSHOT_TAG,
            self._inner.name,
            self._probe_refs,
            self._probe_misses,
            self._decided,
            self._inner.snapshot(),
        )

    def restore(self, state: object) -> None:
        tag, inner_name, probe_refs, probe_misses, decided, inner_state = state
        if tag != _SNAPSHOT_TAG:
            raise SimulationError(
                f"unrecognised auto-kernel snapshot tag {tag!r}"
            )
        if inner_name != self._inner.name:
            self._inner = self._make_inner(inner_name)
        self._probe_refs = probe_refs
        self._probe_misses = probe_misses
        self._decided = decided
        self._inner.restore(inner_state)

    # ------------------------------------------------------------- decision

    def _make_inner(self, name: str) -> SetKernel:
        cls = ReferenceKernel if name == "reference" else ArrayKernel
        kernel = cls(
            n_sets=self.n_sets,
            assoc=self.assoc,
            line_bits=self.line_bits,
            policy=self.policy,
            seed=None,  # state (incl. RNG) is installed by the caller
            prefetch_next_line=self.prefetch_next_line,
        )
        # The caller installs RNG state and draw count; the seed is this
        # kernel's own (the transplanted stream continues it), so the
        # sanitizer's replay verification stays truthful after a switch.
        kernel._seed = self._seed
        return kernel

    def _decide(self) -> None:
        self._decided = True
        if self.policy is not ReplacementPolicy.RANDOM:
            return  # array wins for LRU/FIFO across observed densities
        density = self._probe_misses / max(1, self._probe_refs)
        if density > SWITCH_MISS_DENSITY:
            self._switch_to_reference()

    def _switch_to_reference(self) -> None:
        inner = self._inner
        ref = self._make_inner("reference")
        ref._sets = [
            inner.lines_in_set(s_idx) for s_idx in range(self.n_sets)
        ]
        ref._dirty = set(inner._tags2d[inner._dirty2d != 0].tolist())
        ref._rand_pool = list(inner._rand_pool)
        ref._rng.bit_generator.state = copy.deepcopy(
            inner._rng.bit_generator.state
        )
        ref._rand_draws = inner._rand_draws
        self._inner = ref
