"""Vectorization analysis tests (Section 5.1, Table 3 unit level)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.vectorize import (
    best_coalesced_layout,
    legacy_default_blocked,
    legacy_vector_width_bits,
    ptx_vector_name,
    vector_width_bits,
)
from repro.core import LANE, REGISTER, WARP
from repro.core.properties import is_distributed_layout
from repro.hardware import RTX4090
from repro.hardware.instructions import InstructionKind, instruction
from repro.mxfp.types import F16, F32, F8E5M2


class TestLegacyAnalysis:
    def test_512x2_f8_is_the_bug(self):
        """The headline Table 3 failure: 16-bit accesses."""
        desc = legacy_default_blocked((512, 2), 8)
        assert legacy_vector_width_bits(desc, (512, 2), 8) == 16

    def test_512x1_f8_vectorizes_on_dim0(self):
        desc = legacy_default_blocked((512, 1), 8)
        assert legacy_vector_width_bits(desc, (512, 1), 8) == 32

    def test_wide_last_dim_is_fine(self):
        desc = legacy_default_blocked((512, 16), 8)
        assert legacy_vector_width_bits(desc, (512, 16), 8) == 128

    def test_cap(self):
        desc = legacy_default_blocked((512, 16), 16)
        assert legacy_vector_width_bits(desc, (512, 16), 16) == 128


class TestLinearAnalysis:
    def test_cross_dim_contiguity(self):
        layout = best_coalesced_layout((512, 2), 8)
        assert vector_width_bits(layout, 8) == 128

    def test_all_table3_rows_dominate(self):
        for bits in (8, 16):
            for k in (1, 2, 4, 8, 16):
                legacy_desc = legacy_default_blocked((512, k), bits)
                legacy = legacy_vector_width_bits(
                    legacy_desc, (512, k), bits
                )
                linear = vector_width_bits(
                    best_coalesced_layout((512, k), bits), bits
                )
                assert linear >= legacy, (bits, k)

    def test_coalesced_layout_is_valid(self):
        layout = best_coalesced_layout((512, 2), 8)
        assert is_distributed_layout(layout)
        assert layout.total_out_size() == 1024

    @given(
        st.sampled_from([(512, 1), (512, 2), (256, 4), (64, 64),
                         (4096,), (128, 2, 2)]),
        st.sampled_from([8, 16, 32]),
    )
    @settings(max_examples=30, deadline=None)
    def test_coalesced_layout_always_valid(self, shape, bits):
        layout = best_coalesced_layout(shape, bits)
        assert is_distributed_layout(layout)
        total = 1
        for s in shape:
            total *= s
        assert layout.total_out_size() == total

    def test_small_tensor_broadcasts(self):
        layout = best_coalesced_layout((16,), 32, num_warps=4)
        assert is_distributed_layout(layout)
        # 16 elements over 128 threads: lanes and warps broadcast.
        free = layout.free_variable_masks()
        assert free[LANE] or free[WARP]


class TestAccessPlans:
    def test_instruction_count(self):
        layout = best_coalesced_layout((512, 2), 8)
        bits = vector_width_bits(layout, 8, RTX4090.max_vector_bits)
        inst = instruction(InstructionKind.GLOBAL_LOAD, vector_bits=bits)
        assert inst.kind == InstructionKind.GLOBAL_LOAD
        assert inst.vector_bits == 128
        # Each thread's 8-bit elements fill whole 128-bit accesses.
        regs = layout.in_dim_size(REGISTER)
        assert regs * 8 % bits == 0

    def test_ptx_names(self):
        assert ptx_vector_name(128) == "v4.b32"
        assert ptx_vector_name(64) == "v2.b32"
        assert ptx_vector_name(32) == "v1.b32"
        assert ptx_vector_name(16) == "v1.b16"
