"""Good: the v5 shape — a snapshot of per-core records, each record
built from a literal payload that writes every field."""

from dataclasses import dataclass


@dataclass
class CoreState:
    core_id: int
    workload_name: str
    cycle_carry: float


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
            "cycle_carry": 0.0,
        }
        return CoreState(**payload)

    def snapshot(self):
        return _capture([self], 0)
