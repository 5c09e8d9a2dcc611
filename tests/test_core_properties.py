"""Tests for layout predicates and utilities (repro.core.properties)."""

import pytest

from repro.core import (
    LANE,
    LinearLayout,
    REGISTER,
    WARP,
    is_distributed_layout,
    is_memory_layout,
    largest_vectorization,
    make_identity,
    num_contiguous_elements,
)
from repro.layouts import (
    BlockedLayout,
    NvidiaMmaLayout,
    SwizzledSharedLayout,
    shared_layout_for_mma,
)


class TestDistributedPredicate:
    def test_blocked_is_distributed(self):
        layout = BlockedLayout((2, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        assert is_distributed_layout(layout)

    def test_mma_is_distributed(self):
        assert is_distributed_layout(
            NvidiaMmaLayout((2, 2)).to_linear((32, 32))
        )

    def test_zero_columns_allowed(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (0,)], LANE: [(2,)]}, {"dim0": 4}
        )
        assert is_distributed_layout(layout)

    def test_two_bit_column_rejected(self):
        layout = LinearLayout(
            {REGISTER: [(3,), (2,)]}, {"dim0": 4},
            require_surjective=False,
        )
        assert not is_distributed_layout(layout)

    def test_repeated_nonzero_column_rejected(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (1,)], LANE: [(2,)]}, {"dim0": 4}
        )
        assert not is_distributed_layout(layout)

    def test_non_surjective_rejected(self):
        layout = LinearLayout(
            {REGISTER: [(1,)]}, {"dim0": 4}, require_surjective=False
        )
        assert not is_distributed_layout(layout)


class TestMemoryPredicate:
    def test_unswizzled_is_memory(self):
        layout = SwizzledSharedLayout().to_linear((16, 16))
        assert is_memory_layout(layout)

    def test_mma_swizzled_is_memory(self):
        sw = shared_layout_for_mma(16, (64, 64))
        assert is_memory_layout(sw.to_linear((64, 64)))

    def test_distributed_is_not_memory(self):
        layout = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (8, 32)
        )
        # Multiple input dims but still invertible: columns have one
        # bit each, which IS allowed; a blocked layout of matching
        # size actually satisfies Definition 4.14's column rule, so
        # use a non-invertible one instead.
        sliced = LinearLayout(
            {REGISTER: [(0,)], LANE: [(1,), (2,)]},
            {"dim0": 4},
        )
        assert not is_memory_layout(sliced)
        del layout

    def test_three_bit_column_rejected(self):
        layout = LinearLayout(
            {"offset": [(0b111,), (0b010,), (0b100,)]},
            {"dim0": 8},
            require_surjective=False,
        )
        assert not is_memory_layout(layout)


class TestContiguity:
    def test_contiguous_registers(self):
        layout = make_identity([(8, REGISTER, "dim0")])
        assert num_contiguous_elements(layout) == 8

    def test_cross_dim_contiguity(self):
        """The Table 3 case: contiguity spans the dim boundary."""
        layout = BlockedLayout((8, 2), (16, 2), (4, 1), (1, 0)).to_linear(
            (512, 2)
        )
        assert num_contiguous_elements(layout) == 16

    def test_vectorization_cap(self):
        layout = make_identity([(32, REGISTER, "dim0")])
        assert largest_vectorization(layout, 32) == 128
        assert largest_vectorization(layout, 8) == 128
        assert largest_vectorization(layout, 8, max_vector_bits=64) == 64

    def test_scalar_floor(self):
        layout = LinearLayout(
            {REGISTER: [(2,)], LANE: [(1,)]}, {"dim0": 4}
        )
        assert largest_vectorization(layout, 16) == 16


class TestUniqueThreads:
    """Each free lane bit halves the lanes holding distinct data."""

    @staticmethod
    def unique_lanes(layout):
        free = layout.free_variable_masks().get(LANE, 0)
        return layout.in_dim_size(LANE) >> bin(free).count("1")

    def test_no_duplicates(self):
        layout = BlockedLayout((1, 1), (4, 8), (1, 1), (1, 0)).to_linear(
            (4, 8)
        )
        assert self.unique_lanes(layout) == 32

    def test_halved_by_free_lane_bit(self):
        layout = LinearLayout(
            {LANE: [(1,), (0,)], REGISTER: [(2,)]}, {"dim0": 4}
        )
        assert layout.free_variable_masks()[LANE] == 0b10
        assert self.unique_lanes(layout) == 2
