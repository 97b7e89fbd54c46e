"""Rule families of ``reprolint``.

Importing this package registers every rule with the framework registry:

* :mod:`repro.lint.rules.determinism` — RPL1xx, bit-for-bit
  reproducibility of simulated results.
* :mod:`repro.lint.rules.process_safety` — RPL7xx, process/concurrency
  safety across the ProcessPoolExecutor fork boundary.

The invariants other families once restated statically (cache-key and
stream-fingerprint completeness, kernel parity, stats purity, snapshot
payloads, and RPL702's live objects passed into a worker) are held by
runtime guards and their tests; DESIGN.md section 7 maps each retired
code to its guard.
"""

from repro.lint.rules import determinism, process_safety

__all__ = ["determinism", "process_safety"]
