"""The benchmark suite's tracer must keep finding the session hooks.

``benchmarks/suite/tracer.py`` wraps session entry points by name,
through each class's own ``__dict__``; a refactor that drops or moves
one makes the suite's traced run abort. This test installs the tracer
against ``src`` and uninstalls it again, so such a refactor fails here
first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.sim.session import MultiCoreSession, SimulationSession

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "tracer.py"
HOOKED = {
    SimulationSession: ("start", "run", "step", "finalize", "_run_fused"),
    MultiCoreSession: ("start", "run", "step", "finalize"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("suite_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores_every_session_hook():
    suite_tracer = load_tracer()
    originals = {
        (cls, attr): vars(cls)[attr] for cls, attrs in HOOKED.items() for attr in attrs
    }
    tracer = suite_tracer.Tracer()
    try:
        suite_tracer.install(tracer)
        patched = {
            key for key, fn in originals.items() if vars(key[0])[key[1]] is not fn
        }
    finally:
        tracer.uninstall()
    assert patched == set(originals)
    assert all(vars(cls)[attr] is fn for (cls, attr), fn in originals.items())
