"""Offline analysis of reference streams and profiles.

The paper's techniques tell a programmer *which* data structure is
causing cache misses; this package helps answer the follow-on questions
a tuner immediately asks:

* :mod:`repro.analysis.conflicts` — per-set pressure and object conflict
  analysis: "are these misses capacity or conflict, and which arrays
  fight over the same sets?"
* :mod:`repro.analysis.advisor` — turns a profile plus the above into
  per-object diagnoses (streaming / thrashing / conflicting) with
  concrete remedies (blocking, padding, pooling), from the stack
  distances of :mod:`repro.cache.mrc`, which also answers "would a
  bigger cache fix it?" (``mrc_from_addrs(addrs).curve(sizes)``).
"""

from repro.analysis.conflicts import ConflictReport, analyse_conflicts
from repro.analysis.advisor import Diagnosis, DiagnosisKind, advise
from repro.analysis.phases import Phase, detect_phases, phase_profiles_differ, phase_table

__all__ = [
    "ConflictReport",
    "analyse_conflicts",
    "Diagnosis",
    "DiagnosisKind",
    "advise",
    "Phase",
    "detect_phases",
    "phase_table",
    "phase_profiles_differ",
]
