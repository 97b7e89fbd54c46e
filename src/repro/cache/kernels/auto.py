"""The "auto" kernel: picks reference vs array from observed behaviour.

The array kernel wins wherever its vectorised phases run, and loses to
the reference kernel where they cannot: there it runs the reference
kernel's walk (:meth:`SetKernel._walk`) over set lists it builds from its
arrays and writes back on every call. Two kinds of call never reach
those phases: a write mask without ``victims``, and every call on a
prefetching kernel. The array kernel walks every reference of them,
while the reference kernel keeps its lists between calls and, on a
write mask, walks only writers and line changes: on 8 calls of 32 Ki
references (runs of 1–4 per line over 8 Ki lines, 256 KiB 4-way LRU,
best of 5, two runs) ``array`` took 1.8–2.4× ``reference``'s time with
30 % writes and 1.4–1.7× prefetching. ``auto`` therefore runs those
calls on the reference kernel outright: a prefetching kernel starts
there, and the first write-mask call without ``victims`` closes the
probe and moves the state over before it runs. Two kinds of stream force the fallback elsewhere:

* **RANDOM replacement under heavy conflict.** RANDOM evictions must
  consume the shared eviction pool in global miss order, which defeats
  both the guaranteed-miss run phase and the per-set rounds tail.
* **Calls a miss budget keeps cutting short.** A sampler arms its miss
  counter to interrupt every *P* misses, so each of its kernel calls
  stops at the *P*-th miss, often after a few hundred references. The
  rounds tail cannot see where that cut falls, so those calls run the
  sequential walk at any policy, while the reference kernel's leader
  walk steps only through line changes and writers. Every such stream
  measured, from miss density 0.005 to 0.49, runs faster there.

Otherwise ``AutoKernel`` starts on an inner :class:`ArrayKernel` and
probes the stream: the probe closes after :data:`PROBE_REFS`
references, or at the :data:`PROBE_CUT_CALLS`-th call its budget cut
short, whichever comes first. Only a budget stops a call early, so an
unbudgeted stream can close the probe on references alone. At the
close it commits: if the probe closed on cut calls, or the policy is
RANDOM and the probe's miss density exceeds
:data:`SWITCH_MISS_DENSITY`, the full kernel state (sets, dirty lines,
eviction pool, RNG) is transplanted into a :class:`ReferenceKernel`;
otherwise the array kernel is kept. Both backends are bit-identical, so
the choice — and its timing — can never change results, only
throughput; the transplant preserves the seeded RANDOM eviction stream
exactly.

Snapshots record the probe state (references, misses, cut calls) and
the active backend, so a restored session resumes with the same
decision, made or pending, and a pending one closes at the same call.
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

#: Calls cut short by their miss budget that close the probe early: a
#: stream the budget keeps cutting (a sampler's interrupts) decides after
#: this many such calls, long before :data:`PROBE_REFS` references.
PROBE_CUT_CALLS = 16

#: Probe miss density above which RANDOM replacement switches to the
#: reference kernel (conflict-heavy RANDOM streams run sequentially in
#: the array kernel, with conversion overhead on top).
SWITCH_MISS_DENSITY = 0.2

_SNAPSHOT_TAG = "auto-v2"


class AutoKernel(SetKernel):
    """Backend-picking kernel; delegates to reference or array."""

    name = "auto"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        # The array kernel walks every call of a prefetching kernel one
        # reference at a time: decide for the reference kernel at once.
        self._decided = self.prefetch_next_line
        self._inner: SetKernel = (
            ReferenceKernel if self._decided else ArrayKernel
        )(**kwargs)
        self._probe_refs = 0
        self._probe_misses = 0
        #: Probe calls that stopped before the end of their chunk (only
        #: a miss budget stops a call early).
        self._cut_calls = 0

    # ----------------------------------------------------------- delegation

    def access(
        self,
        addrs: np.ndarray,
        miss_budget: int | None = None,
        writes: np.ndarray | None = None,
        victims: bool = False,
    ) -> KernelResult:
        if writes is not None and not victims and not self._decided:
            # The array kernel would only walk this call reference by
            # reference, on lists it builds and writes back.
            self._decided = True
            self._switch_to_reference()
        result = self._inner.access(addrs, miss_budget, writes, victims)
        if not self._decided:
            self._probe_refs += result.consumed
            self._probe_misses += result.misses
            if result.consumed < len(addrs):
                self._cut_calls += 1
            if (
                self._probe_refs >= PROBE_REFS
                or self._cut_calls >= PROBE_CUT_CALLS
            ):
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
            self._cut_calls,
            self._decided,
            self._inner.snapshot(),
        )

    def restore(self, state: object) -> None:
        # The tag is read before the shape, so a snapshot of another
        # layout is refused by name rather than unpacked wrongly.
        tag = state[0] if isinstance(state, tuple) and state else None
        if tag != _SNAPSHOT_TAG:
            raise SimulationError(
                f"unrecognised auto-kernel snapshot tag {tag!r} "
                f"(this kernel reads {_SNAPSHOT_TAG!r})"
            )
        assert isinstance(state, tuple)
        (
            _,
            inner_name,
            probe_refs,
            probe_misses,
            cut_calls,
            decided,
            inner_state,
        ) = state
        if inner_name != self._inner.name:
            self._inner = self._make_inner(inner_name)
        self._probe_refs = probe_refs
        self._probe_misses = probe_misses
        self._cut_calls = cut_calls
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
        # The array kernel runs serially on calls a budget keeps cutting
        # (its vectorised phases cannot see the cut coming), where the
        # leader walk wins at every density measured; under RANDOM (the
        # eviction pool is consumed in global miss order) only a
        # miss-dense stream runs faster on the reference kernel. LRU and
        # FIFO streams that are not cut stay on the array kernel.
        density = self._probe_misses / max(1, self._probe_refs)
        if self._cut_calls >= PROBE_CUT_CALLS or (
            self.policy is ReplacementPolicy.RANDOM and density > SWITCH_MISS_DENSITY
        ):
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
