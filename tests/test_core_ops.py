"""Tests for layout operators: left division, identity prefixes,
component comparison (repro.core.ops)."""

import pytest

from repro.codegen.conversion import ConversionKind, classify_conversion
from repro.core import (
    LANE,
    LinearLayout,
    NotDivisibleError,
    OFFSET,
    REGISTER,
    divide_left,
    divide_left_or_raise,
    is_divisible_by,
    make_identity,
    num_identity_low_bits,
    product_pow2,
)
from repro.hardware.instructions import ldmatrix_tile, vector_shared_tile


class TestDivideLeft:
    def test_exact_tile(self):
        tile = LinearLayout.identity1d(4, REGISTER, OFFSET)
        layout = tile * LinearLayout.identity1d(8, LANE, OFFSET)
        quotient = divide_left(layout, tile)
        assert quotient is not None
        assert quotient.in_dim_size(REGISTER) == 1
        assert quotient.in_dim_size(LANE) == 8

    def test_product_reconstruction(self):
        """tile * (layout / tile) == layout — the defining equation."""
        tile = LinearLayout.identity1d(4, REGISTER, OFFSET)
        rest = LinearLayout.identity1d(4, REGISTER, OFFSET)
        layout = tile * rest * LinearLayout.identity1d(4, LANE, OFFSET)
        quotient = divide_left(layout, tile)
        assert quotient is not None
        assert (tile * quotient) == layout

    def test_not_divisible_wrong_low_bits(self):
        # Register bit 0 maps to offset bit 1 instead of 0.
        layout = LinearLayout(
            {REGISTER: [(2,), (1,)]}, {OFFSET: 4}
        )
        tile = LinearLayout.identity1d(2, REGISTER, OFFSET)
        assert divide_left(layout, tile) is None
        assert not is_divisible_by(layout, tile)

    def test_not_divisible_high_bits_hit_tile_block(self):
        # The second register bit maps INTO the tile's output block
        # (offset bits 0..1), violating the [[T, 0], [0, M2]] shape.
        layout = LinearLayout(
            {REGISTER: [(1,), (2,)], LANE: [(2,), (8,)]},
            {OFFSET: 16},
            require_surjective=False,
        )
        tile = LinearLayout.identity1d(
            2, REGISTER, OFFSET
        ) * LinearLayout.identity1d(2, LANE, OFFSET)
        assert divide_left(layout, tile) is None

    def test_tile_larger_than_layout(self):
        layout = LinearLayout.identity1d(2, REGISTER, OFFSET)
        tile = LinearLayout.identity1d(4, REGISTER, OFFSET)
        assert divide_left(layout, tile) is None

    def test_tile_with_missing_out_dim(self):
        layout = LinearLayout.identity1d(4, REGISTER, "dim0")
        tile = LinearLayout.identity1d(2, REGISTER, OFFSET)
        assert divide_left(layout, tile) is None

    def test_raise_variant(self):
        layout = LinearLayout(
            {REGISTER: [(2,), (1,)]}, {OFFSET: 4}
        )
        tile = LinearLayout.identity1d(2, REGISTER, OFFSET)
        with pytest.raises(NotDivisibleError):
            divide_left_or_raise(layout, tile)

    def test_ldmatrix_tile_division(self):
        """The Section 5.3 usage: an f16 reg<->offset map shaped like
        ldmatrix divides by its tile."""
        tile = ldmatrix_tile(16)
        layout = (
            LinearLayout.identity1d(2, REGISTER, OFFSET)
            * LinearLayout.identity1d(4, LANE, OFFSET)
            * LinearLayout.identity1d(8, LANE, OFFSET)
            * LinearLayout.identity1d(4, REGISTER, OFFSET)
        )
        assert is_divisible_by(layout, tile)

    def test_vector_tile(self):
        tile = vector_shared_tile(128, 16)  # 8 f16 elements
        assert tile.in_dim_size(REGISTER) == 8
        layout = LinearLayout.identity1d(8, REGISTER, OFFSET) * (
            LinearLayout.identity1d(32, LANE, OFFSET)
        )
        assert is_divisible_by(layout, tile)


class TestIdentityPrefix:
    def test_full_identity(self):
        layout = make_identity([(8, REGISTER, "dim0")])
        assert num_identity_low_bits(layout, REGISTER) == 3

    def test_partial(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (2,), (8,)], LANE: [(4,)]},
            {"dim0": 16},
        )
        assert num_identity_low_bits(layout, REGISTER) == 2

    def test_none(self):
        layout = LinearLayout(
            {REGISTER: [(2,)], LANE: [(1,)]}, {"dim0": 4}
        )
        assert num_identity_low_bits(layout, REGISTER) == 0

    def test_missing_dim(self):
        layout = make_identity([(8, LANE, "dim0")])
        assert num_identity_low_bits(layout, REGISTER) == 0


class TestComponentComparison:
    """Section 5.4, item 1: layouts agreeing on the lane and warp
    images convert within registers."""

    def test_equal_lanes(self):
        a = make_identity([(4, REGISTER, "dim0"), (8, LANE, "dim0")])
        b = LinearLayout(
            {REGISTER: [(2,), (1,)], LANE: [(4,), (8,), (16,)]},
            {"dim0": 32},
        )
        assert a.basis_images_flat(LANE) == b.basis_images_flat(LANE)
        assert classify_conversion(a, b) == ConversionKind.REGISTER

    def test_order_matters(self):
        a = LinearLayout({LANE: [(1,), (2,)]}, {"dim0": 4})
        b = LinearLayout({LANE: [(2,), (1,)]}, {"dim0": 4})
        assert a.basis_images_flat(LANE) != b.basis_images_flat(LANE)
        assert classify_conversion(a, b) == ConversionKind.SHUFFLE


class TestProductPow2:
    def test_adds_zero_columns(self):
        layout = make_identity([(4, REGISTER, "dim0")])
        grown = product_pow2(layout, REGISTER, 2)
        assert grown.in_dim_size(REGISTER) == 16
        # Registers 4..15 replicate registers 0..3.
        assert grown.apply({REGISTER: 4})["dim0"] == 0
        assert grown.apply({REGISTER: 5})["dim0"] == 1
        assert grown.free_variable_masks()[REGISTER] == 0b1100
