"""Tests for the hardware package: specs, instruction tiles, cost."""

import pytest

from repro.codegen.vectorize import ptx_vector_name
from repro.core import LANE, OFFSET, REGISTER
from repro.hardware import (
    CostModel,
    GH200,
    Instruction,
    InstructionKind,
    MI250,
    PLATFORMS,
    RTX4090,
    ldmatrix_tile,
    vector_shared_tile,
)


class TestSpecs:
    def test_table2_inventory(self):
        assert set(PLATFORMS) == {"RTX4090", "GH200", "MI250"}
        assert RTX4090.warp_size == 32
        assert MI250.warp_size == 64
        assert GH200.mma_flavor == "wgmma"
        assert MI250.mma_flavor == "mfma"

    def test_matrix_instruction_availability(self):
        """The Section 6.2 explanations hinge on these bits."""
        assert RTX4090.has_ldmatrix and not RTX4090.has_stmatrix
        assert GH200.has_ldmatrix and GH200.has_stmatrix
        assert not MI250.has_ldmatrix and not MI250.has_stmatrix

    def test_bank_row(self):
        for spec in PLATFORMS.values():
            assert spec.bank_row_bytes == 128

    def test_lookup(self):
        assert PLATFORMS["GH200"] is GH200
        with pytest.raises(KeyError):
            PLATFORMS["H100"]

    def test_str(self):
        assert "mfma" in str(MI250)


class TestTiles:
    def test_vector_tile_sizes(self):
        tile = vector_shared_tile(128, 16)
        assert tile.in_dim_size(REGISTER) == 8
        assert tile.out_dim_size(OFFSET) == 8

    def test_vector_tile_too_small(self):
        with pytest.raises(ValueError):
            vector_shared_tile(16, 32)

    def test_ldmatrix_tile_geometry(self):
        """id_k(Reg->Off) x id_2(Thr->Off) with k = log2(4/w)."""
        f16 = ldmatrix_tile(16)
        assert f16.in_dim_size(REGISTER) == 2   # 2 x 2B = 4B
        assert f16.in_dim_size(LANE) == 4
        f8 = ldmatrix_tile(8)
        assert f8.in_dim_size(REGISTER) == 4    # 4 x 1B
        f32 = ldmatrix_tile(32)
        assert f32.in_dim_size(REGISTER) == 1

    def test_ldmatrix_element_range(self):
        with pytest.raises(ValueError):
            ldmatrix_tile(64)

class TestCostModel:
    def setup_method(self):
        self.model = CostModel(RTX4090)

    def test_wavefronts_scale_shared_cost(self):
        one = Instruction(InstructionKind.SHARED_LOAD, wavefronts=1)
        four = Instruction(InstructionKind.SHARED_LOAD, wavefronts=4)
        assert self.model.instruction_cycles(four) > (
            self.model.instruction_cycles(one)
        )

    def test_dependent_pays_latency(self):
        pipelined = Instruction(InstructionKind.SHARED_LOAD)
        dependent = Instruction(
            InstructionKind.SHARED_LOAD, dependent=True
        )
        assert self.model.instruction_cycles(dependent) > (
            3 * self.model.instruction_cycles(pipelined)
        )

    def test_global_transactions(self):
        narrow = Instruction(InstructionKind.GLOBAL_LOAD, vector_bits=32)
        wide = Instruction(InstructionKind.GLOBAL_LOAD, vector_bits=128)
        # Wide vectors move 4x the data in 4x the transactions but one
        # instruction; per-byte they are cheaper.
        assert self.model.instruction_cycles(wide) < (
            4 * self.model.instruction_cycles(narrow)
        )

    def test_mma_weight(self):
        mma = Instruction(InstructionKind.MMA, wavefronts=1)
        wgmma = Instruction(InstructionKind.MMA, wavefronts=24)
        assert self.model.instruction_cycles(wgmma) == (
            24 * self.model.instruction_cycles(mma)
        )

    def test_count_multiplies(self):
        single = Instruction(InstructionKind.SHUFFLE, count=1)
        batch = Instruction(InstructionKind.SHUFFLE, count=7)
        assert self.model.instruction_cycles(batch) == (
            7 * self.model.instruction_cycles(single)
        )

    def test_histogram(self):
        insts = [
            Instruction(InstructionKind.SHUFFLE, count=2),
            Instruction(InstructionKind.BARRIER),
            Instruction(InstructionKind.SHUFFLE, count=3),
        ]
        hist = self.model.histogram(insts)
        assert hist == {"shfl.sync": 5, "bar.sync": 1}

    def test_ptx_names(self):
        """Kinds carry their PTX mnemonic; vector suffixes come from
        the access width."""
        inst = Instruction(InstructionKind.SHARED_LOAD, vector_bits=128)
        name = f"{inst.kind.value}.{ptx_vector_name(inst.vector_bits)}"
        assert name == "ld.shared.v4.b32"
        assert InstructionKind.SHUFFLE.value == "shfl.sync"
        sub = Instruction(InstructionKind.GLOBAL_LOAD, vector_bits=16)
        assert f"{sub.kind.value}.{ptx_vector_name(16)}" == "ld.global.v1.b16"
