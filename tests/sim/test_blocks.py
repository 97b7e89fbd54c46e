"""Tests for reference blocks and their cycle cost."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.blocks import ReferenceBlock


class TestReferenceBlock:
    def test_coerces_to_uint64(self):
        block = ReferenceBlock(addrs=[1, 2, 3])
        assert block.addrs.dtype == np.uint64
        assert len(block) == 3

    def test_cycles(self):
        block = ReferenceBlock(addrs=np.arange(10), cycles_per_ref=4.0, extra_cycles=7)
        assert block.total_cycles == 47  # extra charged at completion
        assert block.ref_cycles(5) == 20
        assert block.ref_cycles(10) == 40

    def test_fractional_cycles_are_cumulative(self):
        """The first k references cost int(k * rate), so a chunk's charge
        ref_cycles(p + n) - ref_cycles(p) does not depend on how the block
        was cut: at 2.5 cycles/ref, 1, 2 and 3 references cost 2, 5, 7."""
        block = ReferenceBlock(addrs=np.arange(3), cycles_per_ref=2.5, extra_cycles=1)
        assert [block.ref_cycles(k) for k in range(4)] == [0, 2, 5, 7]
        assert block.total_cycles == 8

    def test_deadline_cap_stops_at_the_reference_that_reaches_it(self):
        # At 0.1 cycles/ref, references 5..9 cost nothing and the 10th
        # brings the clock one cycle on; int(1 / 0.1) alone would run 10.
        block = ReferenceBlock(addrs=np.arange(20), cycles_per_ref=0.1)
        assert block.refs_within_cycles(1, pos=5) == 5
        assert block.refs_within_cycles(1) == 10

    def test_refs_within_cycles(self):
        block = ReferenceBlock(addrs=np.arange(10), cycles_per_ref=4.0)
        assert block.refs_within_cycles(9) == 2
        assert block.refs_within_cycles(1) == 1  # always makes progress

    def test_bad_cpr(self):
        with pytest.raises(WorkloadError):
            ReferenceBlock(addrs=np.arange(3), cycles_per_ref=0)

    def test_writes_mask_validated(self):
        with pytest.raises(WorkloadError):
            ReferenceBlock(addrs=np.arange(3), writes=np.array([True]))

    def test_writes_mask_kept(self):
        block = ReferenceBlock(addrs=np.arange(2), writes=np.array([True, False]))
        assert block.writes.dtype == bool
