"""Optimal swizzling tests (Section 5.4 + Appendix 9.2).

The central property: the analytic wavefront count of Lemma 9.4 must
agree with what the banked-memory simulator measures on the plan's
actual addresses — and the optimal layout must never lose to the
padding heuristic on large tiles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.bank_conflicts import (
    access_wavefronts,
    conversion_wavefronts,
)
from repro.codegen.conversion import (
    _plan_from_memory_layout,
    plan_conversion,
)
from repro.codegen.swizzle import optimal_swizzled_layout
from repro.core import LANE, REGISTER
from repro.gpusim.opcost import price_program
from repro.hardware import GH200, RTX4090
from repro.hardware.instructions import InstructionKind
from repro.layouts import (
    BlockedLayout,
    NvidiaMmaLayout,
    shared_layout_for_mma,
)
from repro.core.reshape import transpose_layout
from repro.f2.subspace import reduce_to_basis
from repro.program import Opcode

from tests.program_reference import SharedMemory


def measured_wavefronts(instr, spec, elem_bytes):
    """Worst-case per-instruction wavefronts of warp 0's accesses."""
    memory = SharedMemory(spec, elem_bytes)
    lanes = instr.accesses.to_tuples()[: spec.warp_size]
    worst = 0
    max_accesses = max((len(a) for a in lanes), default=0)
    for k in range(max_accesses):
        requests = [
            (a[k][0], len(a[k][1])) for a in lanes if k < len(a)
        ]
        worst = max(worst, memory.wavefronts(requests))
    return worst


class TestStructure:
    def test_basis_is_complete(self):
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = optimal_swizzled_layout(src, dst, 16)
        basis = (
            list(plan.vec_basis) + list(plan.subword_basis)
            + list(plan.bank_basis) + list(plan.seg_basis)
        )
        assert len(basis) == src.total_out_bits()
        assert len(reduce_to_basis(basis)) == len(basis)
        assert plan.memory_layout.is_invertible()

    def test_vec_from_shared_registers(self):
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = optimal_swizzled_layout(src, dst, 16)
        a_regs = set(x for x in src.basis_images_flat(REGISTER) if x)
        b_regs = set(x for x in dst.basis_images_flat(REGISTER) if x)
        assert set(plan.vec_basis) <= (a_regs & b_regs)

    def test_vector_cap(self):
        src = BlockedLayout((1, 8), (8, 4), (2, 2), (1, 0)).to_linear(
            (64, 64)
        )
        dst = BlockedLayout((1, 8), (4, 8), (2, 2), (1, 0)).to_linear(
            (64, 64)
        )
        for bits, max_elems in ((8, 16), (16, 8), (32, 4)):
            plan = optimal_swizzled_layout(src, dst, bits)
            assert plan.vec_elems <= max_elems

    def test_subword_fill_for_f8_scalar(self):
        """With no shared registers and 1-byte elements, sub-word bits
        get filled so threads share words instead of conflicting."""
        src = transpose_layout(
            BlockedLayout((1, 4), (4, 8), (2, 2), (1, 0)).to_linear(
                (32, 32)
            ),
            (1, 0),
        )
        dst = BlockedLayout((1, 4), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 32)
        )
        plan = optimal_swizzled_layout(src, dst, 8)
        assert len(plan.vec_basis) + len(plan.subword_basis) >= 2


class TestLemmaAgreement:
    PAIRS = [
        (
            BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)),
            NvidiaMmaLayout((2, 2)),
            16,
        ),
        (
            BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)),
            BlockedLayout((2, 1), (2, 16), (2, 2), (0, 1)),
            16,
        ),
        (
            BlockedLayout((1, 8), (16, 2), (2, 2), (1, 0)),
            BlockedLayout((1, 8), (2, 16), (2, 2), (1, 0)),
            8,
        ),
    ]

    @pytest.mark.parametrize("src_desc,dst_desc,bits", PAIRS)
    def test_analytic_vs_measured(self, src_desc, dst_desc, bits):
        shape = (64, 64)
        src = src_desc.to_linear(shape)
        dst = dst_desc.to_linear(shape)
        plan = plan_conversion(
            src, dst, bits, spec=GH200, allow_shuffle=False
        )
        if plan.kind != "shared":
            pytest.skip("pair does not take the shared path")
        swizzle = optimal_swizzled_layout(src, dst, bits)
        analytic = conversion_wavefronts(swizzle, src, dst)
        for instr in plan.program:
            if instr.opcode == Opcode.STS and not instr.use_stmatrix:
                measured = measured_wavefronts(instr, GH200, bits // 8)
                assert measured <= analytic["write"] * 2
            if instr.opcode == Opcode.LDS and not instr.use_ldmatrix:
                measured = measured_wavefronts(instr, GH200, bits // 8)
                assert measured <= analytic["read"] * 2

    def test_conflict_free_claim_holds(self):
        """When the algorithm claims conflict-freeness, the simulator
        must measure the minimum wavefronts for the vector width."""
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        swizzle = optimal_swizzled_layout(src, dst, 16)
        if not swizzle.conflict_free:
            pytest.skip("not claimed conflict free")
        plan = plan_conversion(src, dst, 16, spec=RTX4090)
        n = max(1, swizzle.vec_elems * 2 // 4)
        for instr in plan.program:
            if instr.opcode == Opcode.STS and not instr.use_stmatrix:
                assert measured_wavefronts(instr, RTX4090, 2) <= n


class TestPinnedStagingLemma:
    """Lemma 9.4 on a staging layout the caller pins.

    The sub-word/bank/segment split of a pinned layout must match the
    optimal algorithm's, so the analytic wavefronts equal what the
    pricer measures on the plan's own vector stores and loads.
    """

    SRC = BlockedLayout((1, 8), (8, 4), (2, 2), (1, 0))
    DSTS = [
        NvidiaMmaLayout((2, 2)),
        BlockedLayout((2, 1), (4, 8), (2, 2), (0, 1)),
    ]

    @pytest.mark.parametrize("spec", [RTX4090, GH200], ids=lambda s: s.name)
    @pytest.mark.parametrize("bits", [8, 16])
    @pytest.mark.parametrize("shape", [(32, 64), (64, 64), (128, 64)])
    @pytest.mark.parametrize("dst_desc", DSTS, ids=["mma", "blocked"])
    def test_analytic_equals_priced(self, spec, bits, shape, dst_desc):
        src = self.SRC.to_linear(shape)
        dst = dst_desc.to_linear(shape)
        memory = shared_layout_for_mma(bits, shape).to_linear(shape)
        plan = plan_conversion(
            src, dst, bits, spec=spec, memory_layout=memory
        )
        assert plan.kind == "shared"
        swizzle = _plan_from_memory_layout(memory, src, dst, bits, spec)
        analytic = {
            InstructionKind.SHARED_STORE: access_wavefronts(swizzle, src),
            InstructionKind.SHARED_LOAD: access_wavefronts(swizzle, dst),
        }
        priced = [
            (i.kind, i.wavefronts)
            for i in price_program(plan.program, spec).instructions
            if i.kind in analytic
        ]
        assert priced
        assert priced == [(kind, analytic[kind]) for kind, _ in priced]


class TestOptimalBeatsPadding:
    @pytest.mark.parametrize("size", [64, 128])
    def test_transpose_staging(self, size):
        """Figure 2's claim at the plan level: on large tiles, the
        optimal staging never costs more cycles than padding."""
        from repro.gpusim.opcost import price_program

        src = transpose_layout(
            BlockedLayout((1, 8), (4, 8), (2, 2), (1, 0)).to_linear(
                (size, size)
            ),
            (1, 0),
        )
        dst = BlockedLayout((1, 8), (4, 8), (2, 2), (1, 0)).to_linear(
            (size, size)
        )
        optimal = plan_conversion(src, dst, 8, spec=GH200)
        padded = plan_conversion(
            src, dst, 8, spec=GH200, swizzle_mode="padded",
            allow_shuffle=False, dedupe_broadcast=False,
        )
        assert (
            price_program(optimal.program, GH200).cycles()
            <= price_program(padded.program, GH200).cycles()
        )
