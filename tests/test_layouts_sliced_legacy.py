"""Tests for sliced layouts (Proposition 4.8) and the legacy baseline."""

import pytest

from repro.core import LANE, REGISTER, WARP
from repro.core.errors import DimensionError, LegacyUnsupportedError
from repro.core.properties import is_distributed_layout
from repro.layouts import (
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    SlicedLayout,
    WgmmaLayout,
    slice_linear_layout,
)
from repro.layouts.legacy import LegacyLayoutSystem, layout_kind
from repro.mxfp.types import F16, F64, F8E5M2, I8


class TestSliceLinear:
    def test_surjective_not_injective(self):
        parent = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        sliced = slice_linear_layout(parent, 1)
        assert sliced.is_surjective()
        assert not sliced.is_injective()
        assert sliced.out_dim_sizes() == {"dim0": 16}

    def test_still_distributed(self):
        """Remark after Prop 4.8: zero columns appear, surjectivity
        survives — the layout stays in the Definition 4.10 family."""
        parent = NvidiaMmaLayout((2, 2)).to_linear((32, 32))
        for dim in (0, 1):
            assert is_distributed_layout(slice_linear_layout(parent, dim))

    def test_duplicates_match_removed_dim(self):
        parent = BlockedLayout((1, 1), (4, 8), (1, 1), (1, 0)).to_linear(
            (4, 8)
        )
        sliced = slice_linear_layout(parent, 1)
        # Lanes that differed only in dim1 now hold duplicates.
        free = sliced.free_variable_masks()
        assert free[LANE] == 0b111  # the three dim1 lane bits

    def test_dim_out_of_range(self):
        parent = BlockedLayout((1, 1), (4, 8), (1, 1), (1, 0)).to_linear(
            (4, 8)
        )
        with pytest.raises(DimensionError):
            slice_linear_layout(parent, 2)


class TestSlicedDescriptor:
    def test_round_trip_shapes(self):
        desc = SlicedLayout(
            BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)), 1, 32
        )
        assert desc.rank == 1
        assert desc.parent_shape((16,)) == [16, 32]
        layout = desc.to_linear((16,))
        assert layout.out_dim_sizes() == {"dim0": 16}

    def test_kind_string(self):
        desc = SlicedLayout(
            BlockedLayout((1, 1), (4, 8), (1, 1), (1, 0)), 0, 4
        )
        assert layout_kind(desc) == "sliced<blocked>"


class TestLegacySystem:
    def setup_method(self):
        self.legacy = LegacyLayoutSystem()
        self.blocked = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0))
        self.mma = NvidiaMmaLayout((2, 2))
        self.operand = MmaOperandLayout(self.mma, 0, 2)

    def test_kind_dispatch(self):
        assert layout_kind(self.blocked) == "blocked"
        assert layout_kind(self.mma) == "mma"
        assert layout_kind(self.operand) == "mma_input"
        assert layout_kind(WgmmaLayout((4, 1))) == "mma"
        assert layout_kind(object()) == "custom"

    def test_cross_kind_comparison_fails(self):
        """The welford limitation: legacy cannot compare kinds."""
        sliced = SlicedLayout(self.blocked, 1, 8)
        assert not self.legacy.can_compare(sliced, self.blocked)
        assert self.legacy.can_compare(self.blocked, self.blocked)

    def test_conversion_matrix(self):
        assert self.legacy.supports_conversion(self.blocked, self.mma)
        assert self.legacy.supports_conversion(self.mma, self.blocked)
        assert not self.legacy.supports_conversion(
            self.operand, self.blocked
        )
        with pytest.raises(LegacyUnsupportedError):
            self.legacy.check_conversion(self.operand, self.blocked)

    def test_reduction_support(self):
        assert self.legacy.supports_reduction(self.blocked)
        assert self.legacy.supports_reduction(self.mma)
        assert not self.legacy.supports_reduction(self.operand)
        sliced_mma = SlicedLayout(self.mma, 1, 8)
        assert not self.legacy.supports_reduction(sliced_mma)
        with pytest.raises(LegacyUnsupportedError):
            self.legacy.check_reduction(self.operand)

    def test_mma_shape_gate_large_ok(self):
        assert self.legacy.supports_mma_shape(F16, F16, 64, 64, 64)

    def test_mma_shape_gate_small_k_fails(self):
        """Low-precision operands need a full K tile in legacy."""
        assert not self.legacy.supports_mma_shape(I8, F8E5M2, 32, 16, 16)

    def test_mma_shape_gate_small_mn_fails(self):
        assert not self.legacy.supports_mma_shape(F16, F16, 8, 8, 64)

    def test_wide_dtypes_more_permissive(self):
        # Wide dtypes have kwidth 1, so a modest K already satisfies
        # the legacy operand-tile requirement.
        assert self.legacy.supports_mma_shape(F64, F64, 16, 8, 16)
        assert not self.legacy.supports_mma_shape(F64, F64, 16, 8, 8)
