"""repro — data-centric cache profiling via hardware performance monitors.

A from-scratch reproduction of Buck & Hollingsworth, *Using Hardware
Performance Monitors to Isolate Memory Bottlenecks* (SC 2000): two
techniques that attribute cache misses to source-level data structures —
miss-address **sampling** and the **n-way counter search** — evaluated on
a simulated memory hierarchy with simulated HPM support.

Quickstart::

    from repro import Simulator, CacheConfig, SamplingProfiler, workloads

    sim = Simulator(CacheConfig(size="256K", assoc=4))
    result = sim.run(workloads.Tomcatv(), tool=SamplingProfiler(period=2048))
    print(result.actual.table())    # exact, from the simulator's oracle
    print(result.measured.table())  # as the sampling tool estimated it

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro import analysis, workloads
from repro.cache import (
    CacheConfig,
    GroundTruth,
    ReplacementPolicy,
    SetAssociativeCache,
)
from repro.core import (
    AdaptiveSamplingProfiler,
    DataProfile,
    GreedySearch,
    NWaySearch,
    ObjectShare,
    PeriodSchedule,
    SamplingProfiler,
    aggregate_by,
    aggregate_heap_by_site,
    comparison_table,
    max_share_error,
    rank_agreement,
    spearman_rank_correlation,
)
from repro.errors import ReproError
from repro.experiments import (
    ExperimentRunner,
    ParallelRunner,
    ResultCache,
    SimSpec,
    TaskSpec,
    ToolSpec,
)
from repro.hpm import CostModel, PerformanceMonitor
from repro.memory import (
    AddressSpace,
    HeapAllocator,
    MemoryObject,
    ObjectMap,
    StackModel,
    SymbolTable,
)
from repro.sim import ReferenceBlock, RunResult, Simulator

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Simulator",
    "RunResult",
    "ReferenceBlock",
    "CacheConfig",
    "SetAssociativeCache",
    "ReplacementPolicy",
    "GroundTruth",
    "PerformanceMonitor",
    "CostModel",
    "SamplingProfiler",
    "AdaptiveSamplingProfiler",
    "PeriodSchedule",
    "NWaySearch",
    "GreedySearch",
    "DataProfile",
    "ObjectShare",
    "comparison_table",
    "rank_agreement",
    "max_share_error",
    "spearman_rank_correlation",
    "aggregate_by",
    "aggregate_heap_by_site",
    "AddressSpace",
    "SymbolTable",
    "HeapAllocator",
    "ObjectMap",
    "StackModel",
    "MemoryObject",
    "ReproError",
    "ExperimentRunner",
    "ParallelRunner",
    "ResultCache",
    "TaskSpec",
    "ToolSpec",
    "SimSpec",
    "workloads",
    "analysis",
]
