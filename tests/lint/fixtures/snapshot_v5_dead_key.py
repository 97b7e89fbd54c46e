"""Bad: a CoreState payload key that is not a field (a renamed field's
old name), so the value it carries is silently dropped.

Expected RPL501 violation: payload key ``ratoi`` is not a CoreState
field.
"""

from dataclasses import dataclass


@dataclass
class CoreState:
    core_id: int
    ratio: int


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
            "ratio": 1,
            "ratoi": 1,
        }
        return CoreState(**payload)
