"""Tests for MMA-family layouts (Proposition 4.7): mma, wgmma, mfma,
and the operand (MMA Input) layouts."""

import pytest

from repro.core import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.properties import is_distributed_layout
from repro.layouts import (
    AmdMfmaLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    WgmmaLayout,
    WgmmaOperandLayout,
    mma_operand_tile,
    mma_output_tile,
)
from repro.layouts.mfma import mfma_output_tile


class TestMmaOutputTile:
    def test_ptx_accumulator_positions(self):
        """c0/c1 at (group, 2*tid4 + {0,1}); c2/c3 at (group + 8, .)."""
        tile = mma_output_tile()
        for lane in range(32):
            group, tid4 = lane >> 2, lane & 3
            for reg in range(4):
                out = tile.apply({REGISTER: reg, LANE: lane})
                expected_row = group + 8 * (reg >> 1)
                expected_col = 2 * tid4 + (reg & 1)
                assert out["dim0"] == expected_row
                assert out["dim1"] == expected_col

    def test_tile_is_bijective(self):
        tile = mma_output_tile()
        assert tile.is_invertible()
        assert tile.out_dim_sizes() == {"dim0": 16, "dim1": 8}


class TestMmaOperandTiles:
    def test_a_fragment_fp16(self):
        """m16n8k16 A fragment: a0..a7 per PTX."""
        tile = mma_operand_tile(0, kwidth=2)
        assert tile.out_dim_sizes() == {"dim0": 16, "dim1": 16}
        assert tile.in_dim_size(REGISTER) == 8
        lane = 5  # group 1, tid4 1
        # a0, a1: row = group, col = 2*tid4 + {0, 1}
        assert tile.apply({REGISTER: 0, LANE: lane}) == {
            "dim0": 1, "dim1": 2,
        }
        assert tile.apply({REGISTER: 1, LANE: lane}) == {
            "dim0": 1, "dim1": 3,
        }
        # a2, a3: row + 8.
        assert tile.apply({REGISTER: 2, LANE: lane})["dim0"] == 9
        # a4..: second K group (col + 8).
        assert tile.apply({REGISTER: 4, LANE: lane})["dim1"] == 10

    def test_b_fragment_transposed(self):
        tile = mma_operand_tile(1, kwidth=2)
        assert tile.out_dim_sizes() == {"dim0": 16, "dim1": 8}
        assert tile.in_dim_size(REGISTER) == 4

    def test_kwidth_scales_k(self):
        assert mma_operand_tile(0, 4).out_dim_size("dim1") == 32
        assert mma_operand_tile(0, 1).out_dim_size("dim1") == 8

    def test_bad_op_idx(self):
        with pytest.raises(DimensionError):
            mma_operand_tile(2, 2)


class TestNvidiaMmaLayout:
    def test_distributed(self):
        layout = NvidiaMmaLayout((2, 2)).to_linear((64, 64))
        assert is_distributed_layout(layout)
        assert layout.in_dim_size(WARP) == 4

    def test_register_replication(self):
        layout = NvidiaMmaLayout((2, 2)).to_linear((64, 64))
        # 64x64 over 32x16 warp-tiles: 2x4 replicas x 4 base regs.
        assert layout.in_dim_size(REGISTER) == 32

    def test_small_shape_broadcasts_warps(self):
        layout = NvidiaMmaLayout((2, 2)).to_linear((16, 8))
        free = layout.free_variable_masks()
        assert free[WARP] == 0b11
        assert is_distributed_layout(layout)

    def test_wrong_rank(self):
        with pytest.raises(DimensionError):
            NvidiaMmaLayout((2, 2)).to_linear((16, 8, 4))

    def test_instr_shape_guard(self):
        with pytest.raises(DimensionError):
            NvidiaMmaLayout((2, 2), instr_shape=(32, 8))


class TestMmaOperandLayout:
    def test_a_operand_warps_broadcast_along_n(self):
        parent = NvidiaMmaLayout((2, 2))
        layout = MmaOperandLayout(parent, 0, 2).to_linear((64, 32))
        free = layout.free_variable_masks()
        # The N-warp bit (bit 1 by construction) holds duplicates.
        assert free[WARP] & 0b10
        assert is_distributed_layout(layout)

    def test_b_operand_warps_broadcast_along_m(self):
        parent = NvidiaMmaLayout((2, 2))
        layout = MmaOperandLayout(parent, 1, 2).to_linear((32, 64))
        free = layout.free_variable_masks()
        assert free[WARP] & 0b01
        assert is_distributed_layout(layout)

    def test_operand_covers_full_k(self):
        parent = NvidiaMmaLayout((2, 2))
        layout = MmaOperandLayout(parent, 0, 2).to_linear((64, 128))
        assert layout.total_out_size() == 64 * 128


class TestWgmma:
    def test_warp_group_structure(self):
        layout = WgmmaLayout((4, 1), instr_n=64).to_linear((64, 64))
        assert is_distributed_layout(layout)
        # Warps 0..3 stack along M in 16-row slabs.
        for warp in range(4):
            out = layout.apply({REGISTER: 0, LANE: 0, WARP: warp})
            assert out["dim0"] == 16 * warp

    def test_needs_four_warps_along_m(self):
        with pytest.raises(DimensionError):
            WgmmaLayout((2, 2))

    def test_instr_n_range(self):
        with pytest.raises(DimensionError):
            WgmmaLayout((4, 1), instr_n=4)

    def test_operand_a(self):
        parent = WgmmaLayout((4, 1), instr_n=64)
        layout = WgmmaOperandLayout(parent, 2).to_linear((64, 64))
        assert is_distributed_layout(layout)


class TestMfma:
    def test_uses_64_lanes(self):
        tile = mfma_output_tile()
        assert tile.in_dim_size(LANE) == 64
        assert tile.out_dim_sizes() == {"dim0": 32, "dim1": 32}
        assert tile.is_invertible()

    def test_full_layout(self):
        layout = AmdMfmaLayout((2, 2)).to_linear((64, 64))
        assert is_distributed_layout(layout)
        assert layout.in_dim_size(LANE) == 64
        assert layout.in_dim_size(REGISTER) == 16

    def test_instr_shape_guard(self):
        with pytest.raises(DimensionError):
            AmdMfmaLayout((2, 2), instr_shape=(16, 16))
