"""Bad: a per-core field the CoreState payload never writes, so every
core of a resumed session would come back with its default.

Expected RPL501 violation: CoreState field ``cycle_carry`` missing from
the payload.
"""

from dataclasses import dataclass


@dataclass
class CoreState:
    core_id: int
    workload_name: str
    cycle_carry: float = 0.0


@dataclass
class SessionSnapshot:
    version: int
    next_core: int
    cores: list[CoreState]


def _capture(cores, next_core):
    payload = {
        "version": 5,
        "next_core": next_core,
        "cores": [core._core_state() for core in cores],
    }
    return SessionSnapshot(**payload)


class SimulationSession:
    def _core_state(self):
        payload = {
            "core_id": 0,
            "workload_name": "x",
        }
        return CoreState(**payload)
