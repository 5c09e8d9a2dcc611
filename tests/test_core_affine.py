"""Tests for affine layouts (the Section 8 extension)."""

import pytest

from repro.core import AffineLayout, DimensionError, LinearLayout, REGISTER


def base_layout():
    return LinearLayout.identity1d(8, REGISTER, "dim0")


class TestAffine:
    def test_zero_offset_is_linear(self):
        """An offset left out is zero: the map is its linear part."""
        affine = AffineLayout(base_layout(), {})
        assert affine.offset == {"dim0": 0}
        assert affine.apply({REGISTER: 5}) == base_layout().apply({REGISTER: 5})

    def test_flip_reverses(self):
        flipped = AffineLayout(base_layout(), {}).flip("dim0")
        values = [flipped.apply({REGISTER: r})["dim0"] for r in range(8)]
        assert values == [7, 6, 5, 4, 3, 2, 1, 0]

    def test_flip_involution(self):
        affine = AffineLayout(base_layout(), {})
        assert affine.flip("dim0").flip("dim0") == affine

    def test_translate(self):
        shifted = AffineLayout(base_layout(), {}).translate(
            "dim0", 4
        )
        assert shifted.apply({REGISTER: 0})["dim0"] == 4
        assert shifted.apply({REGISTER: 4})["dim0"] == 0

    def test_translate_range_check(self):
        with pytest.raises(DimensionError):
            AffineLayout(base_layout(), {}).translate("dim0", 8)

    def test_offset_validation(self):
        with pytest.raises(DimensionError):
            AffineLayout(base_layout(), {"dim0": 9})
        with pytest.raises(DimensionError):
            AffineLayout(base_layout(), {"nope": 1})

    def test_compose_pushes_offset(self):
        """(A2 o A1)(x) == A2(A1(x)) pointwise."""
        inner = AffineLayout(
            LinearLayout.identity1d(8, REGISTER, "mid"), {"mid": 3}
        )
        outer = AffineLayout(
            LinearLayout.identity1d(8, "mid", "dim0"), {"dim0": 5}
        )
        composed = outer.compose(inner)
        for r in range(8):
            step = outer.apply(inner.apply({REGISTER: r}))
            assert composed.apply({REGISTER: r}) == step

    def test_aligned_slice(self):
        """XOR by an aligned start selects ``[start, start + length)``."""
        block = LinearLayout(
            {REGISTER: [(1,), (2,)]}, {"dim0": 8}, require_surjective=False
        )
        sliced = AffineLayout(block, {}).translate("dim0", 4)
        values = [sliced.apply({REGISTER: r})["dim0"] for r in range(4)]
        assert values == [4, 5, 6, 7]

    def test_unaligned_translate_is_not_a_slice(self):
        """An unaligned start wraps inside the block under XOR, which
        is why affine slicing must be aligned."""
        block = LinearLayout(
            {REGISTER: [(1,), (2,)]}, {"dim0": 8}, require_surjective=False
        )
        moved = AffineLayout(block, {}).translate("dim0", 2)
        values = [moved.apply({REGISTER: r})["dim0"] for r in range(4)]
        assert values == [2, 3, 0, 1]
        assert sorted(values) != list(range(2, 6))
