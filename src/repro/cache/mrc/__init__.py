"""One-pass miss-ratio-curve engine (ROADMAP item 3).

One pass over a reference stream — exact Mattson stack distances or a
SHARDS spatial sample — yields the predicted miss ratio of *every* cache
size at once, per memory object and in aggregate, with an analytical
set-associativity correction. The experiment layer uses it to turn an
N-cell size sweep into a single pass plus a few exact-simulator
verification cells (``repro mrc``); ``tests/mrc/`` scores it against the
exact simulator on every registry workload.
"""

from repro.cache.mrc.distances import (
    COLD,
    MrcError,
    lines_of,
    previous_occurrence,
    reuse_distances,
    self_rank_leq,
)
from repro.cache.mrc.engine import (
    DEFAULT_SAMPLE_RATE,
    MRC_MODES,
    MrcResult,
    build_mrc,
    mrc_from_addrs,
    select_verification_sizes,
)
from repro.cache.mrc.histogram import StackDistanceHistogram
from repro.cache.mrc.model import (
    expected_miss_ratio,
    expected_misses,
    miss_probability,
)
from repro.cache.mrc.shards import sample_mask, scale_distances

__all__ = [
    "COLD",
    "DEFAULT_SAMPLE_RATE",
    "MRC_MODES",
    "MrcError",
    "MrcResult",
    "StackDistanceHistogram",
    "build_mrc",
    "expected_miss_ratio",
    "expected_misses",
    "lines_of",
    "miss_probability",
    "mrc_from_addrs",
    "previous_occurrence",
    "reuse_distances",
    "sample_mask",
    "scale_distances",
    "select_verification_sizes",
    "self_rank_leq",
]
