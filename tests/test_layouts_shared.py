"""Tests for shared-memory layouts: Definition 4.11 swizzling and its
inverse characterization (Proposition 4.12).  The legacy padded
staging is tested with the conversion planner that builds it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OFFSET
from repro.core.errors import DimensionError
from repro.core.properties import is_memory_layout
from repro.layouts import (
    SwizzledSharedLayout,
    mma_swizzle_offset,
    shared_layout_for_mma,
)


class TestSwizzleFormula:
    def test_definition_411_column_part(self):
        """Spot-check the swizzle formula against hand computation."""
        # vec=2, per_phase=1, max_phase=4, row of 8 elements.
        # (i, j) = (1, 3): phase = 1, col = ((1 ^ 1) * 2) ^ 1 = 1.
        assert mma_swizzle_offset(1, 3, 2, 1, 4, 8) == 8 + 1
        # (i, j) = (0, j): phase 0, identity on the row.
        for j in range(8):
            assert mma_swizzle_offset(0, j, 2, 1, 4, 8) == j

    def test_per_phase_groups_rows(self):
        # per_phase=2: rows 0 and 1 share a phase.
        for j in range(8):
            assert mma_swizzle_offset(0, j, 2, 2, 4, 8) % 8 == (
                mma_swizzle_offset(1, j, 2, 2, 4, 8) % 8
            )

    def test_bijective_within_tile(self):
        seen = set()
        for i in range(8):
            for j in range(8):
                seen.add(mma_swizzle_offset(i, j, 2, 1, 4, 8))
        assert seen == set(range(64))


class TestSwizzledLayout:
    def test_unswizzled_is_identity(self):
        layout = SwizzledSharedLayout().to_linear((8, 16))
        for offset in (0, 1, 17, 127):
            coords = layout.apply({OFFSET: offset})
            assert coords["dim0"] * 16 + coords["dim1"] == offset

    def test_memory_layout_predicate(self):
        sw = SwizzledSharedLayout(vec=2, per_phase=1, max_phase=4)
        assert is_memory_layout(sw.to_linear((16, 16)))

    def test_inverse_matches_formula(self):
        """store_map (coords -> offset) agrees with the scalar formula
        everywhere — the Proposition 4.12 construction."""
        sw = SwizzledSharedLayout(vec=2, per_phase=2, max_phase=4)
        store = sw.store_map((16, 16))
        for i in range(16):
            for j in range(16):
                expected = sw.offset_of((i, j), (16, 16))
                got = store.apply({"dim0": i, "dim1": j})[OFFSET]
                assert got == expected, (i, j)

    def test_inverse_structure(self):
        """The [[I_n, C], [0, I_m]] block form: row bits pass through."""
        sw = SwizzledSharedLayout(vec=2, per_phase=1, max_phase=4)
        layout = sw.to_linear((8, 8))
        for offset in range(64):
            coords = layout.apply({OFFSET: offset})
            assert coords["dim0"] == offset // 8

    def test_column_major_order(self):
        sw = SwizzledSharedLayout(order=(0, 1))
        layout = sw.store_map((8, 16))
        # dim0 is now the contiguous direction.
        assert layout.apply({"dim0": 1, "dim1": 0})[OFFSET] == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SwizzledSharedLayout(vec=3)
        with pytest.raises(DimensionError):
            SwizzledSharedLayout(order=(1, 1))

    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_always_invertible(self, vec, per_phase, max_phase):
        """Proposition 4.12: every parameterization is a bijection.

        Definition 4.14's 1-or-2-bit column structure additionally
        requires the phase field to fit the row (vec * max_phase <=
        inner size) — the regime every real parameterization uses.
        """
        sw = SwizzledSharedLayout(vec, per_phase, max_phase)
        layout = sw.to_linear((32, 32))
        assert layout.is_invertible()
        if vec * max_phase <= 32:
            assert is_memory_layout(layout)


class TestHeuristicParameters:
    def test_fp16_row64(self):
        sw = shared_layout_for_mma(16, (64, 64))
        assert sw.vec == 8
        assert sw.per_phase == 1
        assert sw.max_phase == 8

    def test_short_rows_pack_phases(self):
        sw = shared_layout_for_mma(16, (64, 32))
        assert sw.per_phase == 2

    def test_always_valid(self):
        for bits in (8, 16, 32):
            for inner in (16, 32, 64, 128):
                sw = shared_layout_for_mma(bits, (64, inner))
                assert sw.to_linear((64, inner)).is_invertible()
