"""Olken's online stack-distance algorithm: the test oracle for the
vectorised pass in :mod:`repro.cache.mrc.distances`.

A Fenwick tree marks the timestamp of every line's most recent access,
so "distinct lines touched since this line's previous access" is one
prefix-sum query per reference. It is sequential, O(N log N), and shares
nothing with the production pass (not even its previous-occurrence
helper), which is what makes it an oracle.
"""

from __future__ import annotations

import numpy as np

from repro.cache.mrc import COLD


class FenwickTree:
    """Prefix-summable integer array of fixed size ``n`` (0-based)."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"FenwickTree size must be non-negative, got {n}")
        self.size = n
        self.tree = [0] * (n + 1)

    def add(self, idx: int, delta: int) -> None:
        """Add ``delta`` at index ``idx``."""
        if not 0 <= idx < self.size:
            raise IndexError(f"index {idx} out of range for size {self.size}")
        idx += 1
        while idx <= self.size:
            self.tree[idx] += delta
            idx += idx & (-idx)

    def prefix_sum(self, idx: int) -> int:
        """Sum of the entries at indices ``[0, idx]``."""
        idx = min(idx, self.size - 1) + 1
        total = 0
        while idx > 0:
            total += self.tree[idx]
            idx -= idx & (-idx)
        return total


def olken_distances(codes) -> np.ndarray:
    """Per-reference LRU stack distances (:data:`COLD` for first touches)."""
    codes = np.asarray(codes).tolist()
    out = np.empty(len(codes), dtype=np.int64)
    fen = FenwickTree(len(codes))
    last: dict[int, int] = {}
    for t, line in enumerate(codes):
        p = last.get(line)
        if p is None:
            out[t] = COLD
        else:
            # Lines whose most recent access follows p; this line's own
            # mark sits at p, so it is never counted.
            out[t] = len(last) - fen.prefix_sum(p)
            fen.add(p, -1)
        fen.add(t, 1)
        last[line] = t
    return out
