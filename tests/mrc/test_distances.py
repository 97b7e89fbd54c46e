"""Stack-distance pass: the vectorised pass against two oracles, Olken's
Fenwick-tree algorithm (``tests/mrc/olken.py``) and a brute-force LRU
stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.mrc import (
    COLD,
    MrcError,
    lines_of,
    previous_occurrence,
    reuse_distances,
    self_rank_leq,
)
from tests.mrc.olken import FenwickTree, olken_distances

streams = st.lists(st.integers(0, 14), min_size=0, max_size=150)

#: The production pass and the Olken oracle, each held to the stack.
PASSES = {"sortmerge": reuse_distances, "fenwick": olken_distances}


def naive_distances(lines):
    """LRU stack simulation, the semantic definition of stack distance."""
    out, stack = [], []
    for line in lines:
        if line in stack:
            depth = stack.index(line)
            out.append(depth)
            stack.pop(depth)
        else:
            out.append(COLD)
        stack.insert(0, line)
    return out


class TestReuseDistances:
    def test_known_sequence(self):
        # a b c b a: b reused over {c}, a over {b, c}.
        d = reuse_distances(np.array([10, 11, 12, 11, 10]))
        assert d.tolist() == [COLD, COLD, COLD, 1, 2]

    def test_empty(self):
        for distances in PASSES.values():
            assert len(distances(np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize("backend", list(PASSES))
    @settings(max_examples=60, deadline=None)
    @given(streams)
    def test_every_backend_matches_stack_oracle(self, backend, lines):
        got = PASSES[backend](np.asarray(lines, dtype=np.int64))
        assert got.tolist() == naive_distances(lines)

    @settings(max_examples=60, deadline=None)
    @given(streams)
    def test_backends_bit_identical(self, lines):
        codes = np.asarray(lines, dtype=np.int64)
        assert reuse_distances(codes).tolist() == olken_distances(codes).tolist()

    def test_backends_bit_identical_large_random(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 5000, 60_000)
        assert np.array_equal(reuse_distances(codes), olken_distances(codes))

    def test_rejects_2d(self):
        with pytest.raises(MrcError, match="1-D"):
            reuse_distances(np.zeros((2, 2), dtype=np.int64))


class TestFenwick:
    """The tree the Olken oracle builds on."""

    def test_prefix_sums(self):
        f = FenwickTree(10)
        f.add(3, 5)
        f.add(7, 2)
        assert f.prefix_sum(2) == 0
        assert f.prefix_sum(3) == 5
        assert f.prefix_sum(9) == 7
        assert f.prefix_sum(9) - f.prefix_sum(3) == 2
        assert f.prefix_sum(99) == 7  # clamped to the last index

    def test_negative_updates(self):
        f = FenwickTree(5)
        f.add(2, 3)
        f.add(2, -3)
        assert f.prefix_sum(4) == 0

    def test_bounds(self):
        with pytest.raises(IndexError):
            FenwickTree(4).add(4, 1)
        with pytest.raises(ValueError):
            FenwickTree(-1)


class TestLinesOf:
    def test_lowers_to_line_numbers(self):
        addrs = np.array([0, 63, 64, 129], dtype=np.uint64)
        assert lines_of(addrs, 64).tolist() == [0, 0, 1, 2]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(MrcError, match="power of two"):
            lines_of(np.array([0], dtype=np.uint64), 48)


class TestPreviousOccurrence:
    @settings(max_examples=50, deadline=None)
    @given(streams)
    def test_matches_naive(self, lines):
        expected = []
        last: dict[int, int] = {}
        for t, line in enumerate(lines):
            expected.append(last.get(line, -1))
            last[line] = t
        got = previous_occurrence(np.asarray(lines, dtype=np.int64))
        assert got.tolist() == expected


class TestSelfRankLeq:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-1, 25), min_size=0, max_size=120))
    def test_matches_brute_force(self, values):
        got = self_rank_leq(np.asarray(values, dtype=np.int64))
        brute = [
            sum(1 for u in values[:t] if u <= v)
            for t, v in enumerate(values)
        ]
        assert got.tolist() == brute

    def test_large_random_spot_checks(self):
        rng = np.random.default_rng(9)
        v = rng.integers(-1, 3000, 50_000)
        got = self_rank_leq(v)
        for t in rng.integers(0, len(v), 200):
            assert got[t] == int(np.sum(v[:t] <= v[t]))
