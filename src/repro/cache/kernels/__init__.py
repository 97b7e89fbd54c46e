"""Pluggable set-associative cache kernels.

A *kernel* is the stateful hit/miss engine behind a cache model: it owns
the per-set line state, the dirty bits and the RANDOM-eviction stream,
and classifies chunks of references. Cache models
(:class:`~repro.cache.set_assoc.SetAssociativeCache`,
:class:`~repro.cache.hierarchy.TwoLevelCache`) stay responsible for
statistics and for the public :class:`~repro.cache.base.CacheModel`
interface, and delegate the actual simulation to a kernel selected by
name:

* ``"reference"`` — the original list-of-lists model, oldest-first per
  set.  Semantics are defined by this kernel.
* ``"array"`` — flat-array state with a vectorised fast path for
  streaming chunks.  **Bit-identical** to the reference kernel: same
  miss masks, same ``miss_budget`` early-exit points, same
  writeback/prefetch counts, same seeded RANDOM-eviction stream
  (enforced by tests/cache/test_backend_equivalence.py).
* ``"auto"`` — starts on the array kernel, watches the first ~64 Ki
  references, and transplants the state into the reference kernel iff
  the policy is RANDOM and the observed miss density is high (the one
  regime where the array kernel's sequential fallback loses). Either
  way the results are bit-identical; only throughput changes.

Every geometry runs on these kernels, direct-mapped (``assoc=1``)
included; there is no separate 1-way model.

Kernels take plain geometry integers rather than a
:class:`~repro.cache.config.CacheConfig` so that ``config.py`` can
import the backend registry without a cycle.
"""

from __future__ import annotations

from repro.cache.kernels.auto import AutoKernel
from repro.cache.kernels.base import KernelResult, SetKernel
from repro.cache.kernels.flat import ArrayKernel
from repro.cache.kernels.reference import ReferenceKernel
from repro.errors import CacheConfigError

__all__ = [
    "KERNEL_BACKENDS",
    "DEFAULT_BACKEND",
    "KernelResult",
    "SetKernel",
    "ReferenceKernel",
    "ArrayKernel",
    "AutoKernel",
    "make_kernel",
    "kernel_for_config",
    "resolve_backend",
]

#: Registered kernel backends, in preference order for documentation.
KERNEL_BACKENDS = ("reference", "array", "auto")

DEFAULT_BACKEND = "reference"

_KERNELS: dict[str, type[SetKernel]] = {
    "reference": ReferenceKernel,
    "array": ArrayKernel,
    "auto": AutoKernel,
}


def resolve_backend(backend: str | None) -> str:
    """Normalise a backend name; ``None`` means the default backend."""
    if backend is None:
        return DEFAULT_BACKEND
    if backend not in _KERNELS:
        raise CacheConfigError(
            f"unknown cache kernel backend {backend!r}; "
            f"available: {', '.join(KERNEL_BACKENDS)}"
        )
    return backend


def make_kernel(
    backend: str | None,
    *,
    n_sets: int,
    assoc: int,
    line_bits: int,
    policy,
    seed: int | None = None,
    prefetch_next_line: bool = False,
) -> SetKernel:
    """Instantiate the kernel class registered under ``backend``."""
    cls = _KERNELS[resolve_backend(backend)]
    return cls(
        n_sets=n_sets,
        assoc=assoc,
        line_bits=line_bits,
        policy=policy,
        seed=seed,
        prefetch_next_line=prefetch_next_line,
    )


def kernel_for_config(
    backend: str | None,
    config,
    seed: int | None = None,
    prefetch_next_line: bool = False,
) -> SetKernel:
    """Kernel with the geometry of a :class:`CacheConfig` (duck-typed)."""
    return make_kernel(
        backend,
        n_sets=config.n_sets,
        assoc=config.assoc,
        line_bits=config.line_bits,
        policy=config.policy,
        seed=seed,
        prefetch_next_line=prefetch_next_line,
    )
