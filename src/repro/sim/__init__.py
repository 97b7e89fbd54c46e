"""The simulation engine: virtual time, reference streams, instrumentation.

Mirrors the paper's experimental apparatus (section 3): applications run
as streams of load/store references through the simulated cache while a
virtual cycle counter advances; instrumentation code "runs inside the
simulation, so it can be timed using the virtual cycle counter, and it can
affect the cache, making it possible to study perturbation of the
results".
"""

from repro.sim.clock import VirtualClock
from repro.sim.blocks import ReferenceBlock
from repro.sim.events import RunStats
from repro.sim.instrumentation import HandlerResult, InstrumentationTool, ToolContext
from repro.sim.observers import (
    ChunkEvent,
    CoreRateObserver,
    InterruptEvent,
    InterruptRateObserver,
    MissRateObserver,
    ProgressObserver,
    SessionObserver,
    ToolCycleShareObserver,
)
from repro.sim.session import (
    SNAPSHOT_VERSION,
    MultiCoreSession,
    SessionSnapshot,
    SimulationSession,
    ToolDispatcher,
)
from repro.sim.engine import RunResult, Simulator
from repro.sim.trace_io import load_trace, save_trace

__all__ = [
    "VirtualClock",
    "ReferenceBlock",
    "RunStats",
    "HandlerResult",
    "InstrumentationTool",
    "ToolContext",
    "ChunkEvent",
    "InterruptEvent",
    "SessionObserver",
    "MissRateObserver",
    "InterruptRateObserver",
    "ToolCycleShareObserver",
    "ProgressObserver",
    "CoreRateObserver",
    "SNAPSHOT_VERSION",
    "SessionSnapshot",
    "SimulationSession",
    "MultiCoreSession",
    "ToolDispatcher",
    "RunResult",
    "Simulator",
    "save_trace",
    "load_trace",
]
