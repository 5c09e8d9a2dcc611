"""Tests for generalized vectorization and fixed-staging conversions."""

import pytest

from repro.codegen.conversion import plan_conversion
from repro.codegen.division import (
    ldmatrix_applicable,
    match_instruction_tile,
    permute_registers_for_tile,
    register_offset_map,
)
from repro.core import LANE, LinearLayout, OFFSET, REGISTER
from repro.gpusim import Machine, distributed_data
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200
from repro.hardware.instructions import ldmatrix_tile, vector_shared_tile
from repro.layouts import (
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    SwizzledSharedLayout,
    shared_layout_for_mma,
)
from repro.program import Opcode


class TestRegisterOffsetMap:
    def test_identity_staging(self):
        dist = BlockedLayout((1, 4), (4, 8), (1, 1), (1, 0)).to_linear(
            (4, 32)
        )
        mem = SwizzledSharedLayout().to_linear((4, 32))
        reg_off = register_offset_map(dist, mem)
        assert reg_off.out_dims == [OFFSET]
        # Registers are row-contiguous: identity on the low bits.
        assert reg_off.basis_images_flat(REGISTER) == [1, 2]


class TestGeneralizedVectorization:
    def test_column_major_registers_permuted(self):
        """Section 5.3's example: a column-major register order blocks
        direct division; permuting registers exposes the tile."""
        # Registers walk offsets [0, 4, 1, 5]: bit order swapped.
        layout = LinearLayout(
            {REGISTER: [(4,), (1,)], LANE: [(2,), (8,)]},
            {OFFSET: 16},
        )
        tile = vector_shared_tile(32, 16)  # 2 elements
        assert not match_instruction_tile(layout, tile)
        result = permute_registers_for_tile(layout, tile)
        assert result is not None
        permuted, perm = result
        assert match_instruction_tile(permuted, tile)
        # The permutation swaps the two register bits.
        assert perm == (0, 2, 1, 3)

    def test_identity_when_already_divisible(self):
        layout = LinearLayout(
            {REGISTER: [(1,), (2,)], LANE: [(4,), (8,)]},
            {OFFSET: 16},
        )
        tile = vector_shared_tile(32, 16)
        permuted, perm = permute_registers_for_tile(layout, tile)
        assert perm == tuple(range(4))
        assert permuted == layout

    def test_impossible_permutation(self):
        # No register maps to offset bit 0 at all.
        layout = LinearLayout(
            {REGISTER: [(4,), (8,)], LANE: [(1,), (2,)]},
            {OFFSET: 16},
        )
        tile = vector_shared_tile(32, 16)
        assert permute_registers_for_tile(layout, tile) is None


class TestFixedStaging:
    def setup_method(self):
        self.src = BlockedLayout(
            (1, 8), (8, 4), (2, 2), (1, 0)
        ).to_linear((64, 64))
        self.dst = MmaOperandLayout(
            NvidiaMmaLayout((2, 2)), 0, 2
        ).to_linear((64, 64))
        self.mem = shared_layout_for_mma(16, (64, 64)).to_linear(
            (64, 64)
        )

    def test_ldmatrix_applies_on_hardware_swizzle(self):
        assert ldmatrix_applicable(self.dst, self.mem, ldmatrix_tile(16))

    def test_fixed_staging_plan_correct(self):
        plan = plan_conversion(
            self.src, self.dst, 16, spec=GH200,
            memory_layout=self.mem,
        )
        assert any("fixed staging" in n for n in plan.notes)
        registers = distributed_data(self.src, 4, 32)
        converted, trace = Machine(GH200, 4).run_conversion(
            plan, registers
        )
        assert_matches_layout(converted, self.dst)
        from repro.hardware.instructions import InstructionKind

        assert trace.count(InstructionKind.LDMATRIX) > 0

    def test_fixed_staging_uses_ldmatrix(self):
        plan = plan_conversion(
            self.src, self.dst, 16, spec=GH200,
            memory_layout=self.mem,
        )
        loads = [i for i in plan.program if i.opcode == Opcode.LDS]
        assert loads and loads[0].use_ldmatrix
