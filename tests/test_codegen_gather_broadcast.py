"""Tests for gather planning (Section 5.5) and broadcast accounting
(Section 5.1)."""

import pytest

from repro.codegen.broadcast import (
    duplicate_groups,
    reduction_load_count,
    reduction_store_count,
)
from repro.codegen.gather import (
    GatherPlanError,
    axis_component_bits,
    can_gather_with_shuffles,
    gather_shuffle_program,
)
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from repro.layouts.sliced import slice_linear_layout


def shuffle_rounds(layout, axis):
    """Shuffle rounds per register slot of the shuffle gather."""
    program = gather_shuffle_program(layout, axis)
    return program.instrs[0].shuffle_count // layout.in_dim_size(REGISTER)


class TestGatherPlanning:
    def warp_local_layout(self):
        # Axis 1 covered by lanes + registers only.
        return BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 16)
        )

    def cross_warp_layout(self):
        # Axis 1 covered partly by warps.
        return BlockedLayout((1, 1), (8, 4), (1, 4), (1, 0)).to_linear(
            (8, 16)
        )

    def test_axis_component_bits(self):
        layout = self.warp_local_layout()
        assert axis_component_bits(layout, WARP, 1) == 0
        assert axis_component_bits(layout, LANE, 1) == 3
        assert axis_component_bits(layout, WARP, 0) == 2

    def test_shuffle_eligibility(self):
        assert can_gather_with_shuffles(self.warp_local_layout(), 1)
        assert not can_gather_with_shuffles(self.cross_warp_layout(), 1)

    def test_plan_shape(self):
        """2^|L_Thr^axis| rounds for each of the thread's registers."""
        layout = self.warp_local_layout()
        program = gather_shuffle_program(layout, 1)
        assert len(program) == 1
        assert program.label == "gather-shuffle"
        assert layout.in_dim_size(REGISTER) == 2
        assert program.instrs[0].shuffle_count == 8 * 2

    def test_cross_warp_raises(self):
        with pytest.raises(GatherPlanError):
            gather_shuffle_program(self.cross_warp_layout(), 1)

    def test_axis_out_of_range(self):
        with pytest.raises(GatherPlanError):
            gather_shuffle_program(self.warp_local_layout(), 5)

    def test_rounds_grow_with_axis_lanes(self):
        """The Figure 8 collapse mechanism: more axis lanes => more
        shuffle rounds per position."""
        small = BlockedLayout((1, 1), (16, 2), (4, 1), (1, 0)).to_linear(
            (64, 2)
        )
        big = BlockedLayout((1, 1), (2, 16), (4, 1), (1, 0)).to_linear(
            (8, 16)
        )
        assert shuffle_rounds(small, 1) < shuffle_rounds(big, 1)


class TestBroadcastAccounting:
    def test_duplicate_groups(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (0,)], LANE: [(2,)], WARP: [(0,)]},
            {"dim0": 4},
        )
        groups = duplicate_groups(layout)
        assert groups[REGISTER] == 2
        assert groups[LANE] == 1
        assert groups[WARP] == 2

    def test_unique_owner_count(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (0,)], LANE: [(2,)], WARP: [(0,)]},
            {"dim0": 4},
        )
        # 4 regs x 2 lanes x 2 warps = 16 slots; one free register bit
        # and one free warp bit divide by 4.
        slots = 1
        for dim in (REGISTER, LANE, WARP):
            slots *= layout.in_dim_size(dim)
        dup = 1
        for factor in duplicate_groups(layout).values():
            dup *= factor
        assert slots // dup == 4 == layout.total_out_size()

    def test_reduction_counts_dedupe(self):
        parent = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        sliced = slice_linear_layout(parent, 1)
        assert reduction_store_count(sliced, dedupe=False) >= (
            reduction_store_count(sliced, dedupe=True)
        )
        assert reduction_load_count(sliced, dedupe=False) >= (
            reduction_load_count(sliced, dedupe=True)
        )

    def test_mma_sliced_counts(self):
        parent = NvidiaMmaLayout((2, 2)).to_linear((32, 32))
        sliced = slice_linear_layout(parent, 1)
        legacy = reduction_store_count(sliced, dedupe=False)
        linear = reduction_store_count(sliced, dedupe=True)
        assert legacy > linear  # duplicates exist and are skipped
