"""Tests for shape operations on layouts (Theorem 9.3's transfers).

Each transfer must make the op a register-level no-op: the hardware
slot that held element x before the op holds op(x)'s image after it.
These tests verify that elementwise against reference coordinate math.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DimensionError,
    LANE,
    REGISTER,
    WARP,
    broadcast_layout,
    expand_dims_layout,
    flatten_outs,
    join_layout,
    reshape_layout,
    split_layout,
    transpose_layout,
)
from repro.layouts import BlockedLayout


def sample_layout(shape=(16, 32)):
    return BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(shape)


def all_slots(layout):
    for w in range(layout.in_dim_size(WARP)):
        for l in range(layout.in_dim_size(LANE)):
            for r in range(layout.in_dim_size(REGISTER)):
                yield {REGISTER: r, LANE: l, WARP: w}


class TestTranspose:
    def test_coordinates_swap(self):
        layout = sample_layout()
        transposed = transpose_layout(layout, (1, 0))
        for slot in all_slots(layout):
            before = layout.apply(slot)
            after = transposed.apply(slot)
            assert after["dim0"] == before["dim1"]
            assert after["dim1"] == before["dim0"]

    def test_shape_swaps(self):
        transposed = transpose_layout(sample_layout(), (1, 0))
        assert transposed.out_dim_sizes() == {"dim0": 32, "dim1": 16}

    def test_identity_permutation(self):
        layout = sample_layout()
        assert transpose_layout(layout, (0, 1)) == layout

    def test_bad_permutation(self):
        with pytest.raises(DimensionError):
            transpose_layout(sample_layout(), (0, 0))

    def test_mma_transpose_exists(self):
        """The case legacy layouts cannot express (Section 4.4)."""
        from repro.layouts import NvidiaMmaLayout

        mma = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        transposed = transpose_layout(mma, (1, 0))
        assert transposed.out_dim_sizes() == {"dim0": 64, "dim1": 32}
        assert transposed.is_surjective()


class TestReshape:
    def test_flatten_round_trip(self):
        layout = sample_layout()
        flat = reshape_layout(layout, [512])
        back = reshape_layout(flat, [16, 32])
        assert back == reshape_layout(layout, [16, 32])

    def test_row_major_semantics(self):
        layout = sample_layout()
        flat = reshape_layout(layout, [512])
        for slot in all_slots(layout):
            coords = layout.apply(slot)
            expected = coords["dim0"] * 32 + coords["dim1"]
            assert flat.apply(slot)["dim0"] == expected

    def test_split_dims(self):
        layout = sample_layout()
        wide = reshape_layout(layout, [16, 2, 16])
        for slot in all_slots(layout):
            coords = layout.apply(slot)
            got = wide.apply(slot)
            assert got["dim0"] == coords["dim0"]
            assert got["dim1"] * 16 + got["dim2"] == coords["dim1"]

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            reshape_layout(sample_layout(), [16, 16])

    def test_flatten_outs_helper(self):
        layout = sample_layout()
        flat = flatten_outs(layout)
        assert flat.out_dim_sizes() == {"dim0": 512}


class TestExpandSqueeze:
    def test_expand_inserts_unit_dim(self):
        layout = sample_layout()
        expanded = expand_dims_layout(layout, 1)
        assert expanded.out_dim_sizes() == {
            "dim0": 16, "dim1": 1, "dim2": 32,
        }

    def test_expand_squeeze_round_trip(self):
        """Squeezing is a reshape that drops the unit dim again."""
        layout = sample_layout()
        assert reshape_layout(expand_dims_layout(layout, 0), [16, 32]) == (
            reshape_layout(layout, [16, 32])
        )

    def test_squeeze_non_unit_rejected(self):
        expanded = expand_dims_layout(sample_layout(), 0)
        with pytest.raises(DimensionError):
            reshape_layout(expanded, [1, 32])

    def test_expand_out_of_range(self):
        with pytest.raises(DimensionError):
            expand_dims_layout(sample_layout(), 5)


class TestBroadcast:
    def test_register_replication(self):
        layout = sample_layout((16, 1))
        wide = broadcast_layout(layout, 1, 8)
        assert wide.out_dim_size("dim1") == 8
        # The new registers enumerate the broadcast positions.
        base_regs = layout.in_dim_size(REGISTER)
        assert wide.in_dim_size(REGISTER) == base_regs * 8

    def test_surjective_result(self):
        layout = sample_layout((16, 1))
        wide = broadcast_layout(layout, 1, 8)
        assert wide.is_surjective()

    def test_non_unit_source_rejected(self):
        with pytest.raises(DimensionError):
            broadcast_layout(sample_layout(), 1, 64)


class TestJoinSplit:
    def test_join_appends_minor_dim(self):
        layout = sample_layout()
        joined = join_layout(layout)
        assert joined.out_dim_sizes() == {
            "dim0": 16, "dim1": 32, "dim2": 2,
        }
        # The pair index lives in the first register bit.
        assert joined.apply({REGISTER: 1})["dim2"] == 1

    def test_join_split_round_trip(self):
        layout = sample_layout()
        assert split_layout(join_layout(layout)) == layout

    def test_split_requires_structure(self):
        # The trailing size-2 dim lives in a *lane* bit, not the first
        # register bit, so the free split is impossible.
        layout = BlockedLayout((1, 1), (16, 2), (4, 1), (1, 0)).to_linear(
            (64, 2)
        )
        with pytest.raises(DimensionError):
            split_layout(layout)


@given(
    st.sampled_from([(16, 32), (32, 32), (8, 64)]),
    st.permutations([0, 1]),
)
@settings(max_examples=20, deadline=None)
def test_transpose_involution(shape, perm):
    layout = sample_layout(shape)
    twice = transpose_layout(transpose_layout(layout, perm), perm)
    if tuple(perm) == (1, 0):
        assert twice == transpose_layout(layout, (0, 1))
    else:
        assert twice == layout
