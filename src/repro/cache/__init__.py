"""Processor-cache simulation substrate.

The paper's evaluation runs applications under a software cache simulator:
"The cache simulated is a single-level set associative cache (2MB in size
for these experiments)". This package provides that simulator — one
exact set-associative model with pluggable replacement
(:class:`SetAssociativeCache`) over the kernels in
:mod:`repro.cache.kernels`, which serves every geometry, direct-mapped
included — plus the ground-truth per-object miss attribution that
produces the paper's "Actual" columns.
"""

from repro.cache.config import CacheConfig, MechanismSpec, parse_mechanisms
from repro.cache.base import AccessResult, CacheModel, CacheStats
from repro.cache.policies import ReplacementPolicy
from repro.cache.kernels import KERNEL_BACKENDS, resolve_backend
from repro.cache.components import (
    CacheComponent,
    MissCache,
    Pipeline,
    StreamBuffers,
    VictimCache,
    wrap_mechanisms,
)
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.hierarchy import TwoLevelCache
from repro.cache.attribution import GroundTruth, MissSeries
from repro.errors import CacheConfigError

__all__ = [
    "CacheConfig",
    "CacheModel",
    "CacheStats",
    "CacheComponent",
    "AccessResult",
    "MechanismSpec",
    "ReplacementPolicy",
    "KERNEL_BACKENDS",
    "SetAssociativeCache",
    "TwoLevelCache",
    "Pipeline",
    "VictimCache",
    "MissCache",
    "StreamBuffers",
    "GroundTruth",
    "MissSeries",
    "parse_mechanisms",
    "wrap_mechanisms",
]


def make_cache(
    config: CacheConfig,
    seed: int | None = None,
    l1_config: CacheConfig | None = None,
    prefetch_next_line: bool = False,
    backend: str | None = None,
) -> CacheModel:
    """Build the right cache model for ``config``.

    Every geometry, direct-mapped (``assoc=1``) included, builds a
    :class:`SetAssociativeCache` on the selected kernel, so ``backend``
    and write masks mean the same at every associativity. ``l1_config``
    puts a filtering L1 in front, returning a :class:`TwoLevelCache`
    whose miss stream (what the counters see) is the L2's. ``backend``
    selects the kernel executing the access loop (see
    :mod:`repro.cache.kernels`); it defaults to ``config.backend`` and,
    for the two-level model, applies to both levels.

    ``config.mechanisms`` wraps the built stack (outermost component
    last-listed) in the requested miss-reduction decorators — see
    :mod:`repro.cache.components`. The wrapped set-associative stack
    runs on ``backend`` like any other: decorators ask its kernels for
    per-miss victims, which every backend reports. An empty
    ``mechanisms`` tuple builds exactly the undecorated model.
    """
    backend = resolve_backend(backend if backend is not None else config.backend)
    if config.mechanisms:
        if prefetch_next_line:
            stack = "+".join(m.describe() for m in config.mechanisms)
            raise CacheConfigError(
                "prefetch_next_line cannot combine with the mechanism "
                f"stack {stack}: both own the miss path. Drop the "
                "prefetcher, or put an sb (stream buffers) entry in the "
                "stack — `repro mechanisms` sweeps those exactly"
            )
        base: CacheModel = (
            TwoLevelCache(l1_config, config, backend=backend, seed=seed)
            if l1_config is not None
            else SetAssociativeCache(config, seed=seed, backend=backend)
        )
        return wrap_mechanisms(base, config.mechanisms)
    if l1_config is not None:
        if prefetch_next_line:
            raise CacheConfigError(
                "prefetch_next_line is not supported on the two-level model"
            )
        return TwoLevelCache(l1_config, config, backend=backend, seed=seed)
    return SetAssociativeCache(
        config, seed=seed, prefetch_next_line=prefetch_next_line, backend=backend
    )
