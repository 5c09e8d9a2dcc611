"""Tests for the simulated GPU: banked memory, register files, traces,
machine execution, and pricing/machine agreement."""

import numpy as np
import pytest

from repro.codegen import plan_conversion
from repro.codegen.gather import gather_shared_program, gather_shuffle_program
from repro.core import LANE, REGISTER, WARP
from repro.gpusim import (
    Machine,
    RegisterFile,
    Trace,
    distributed_data,
)
from repro.gpusim.memory import instruction_wavefronts
from repro.gpusim.opcost import price_program
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250, RTX4090
from repro.hardware.instructions import InstructionKind
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from repro.program import R_IDX, R_IN
from repro.program.ir import MovR, Shfl, WarpProgram

from tests.layout_reference import flat_of
from tests.program_reference import SharedMemory
from tests.register_reference import as_dict, empty_file, write


def run_gather(machine, program, src, index):
    """(gathered registers, trace) of one gather program's run."""
    files, trace = machine.run_program(program, {R_IN: src, R_IDX: index})
    return files[program.result], trace


def wavefronts(requests, elem_bytes=4, spec=RTX4090):
    """One warp access's wavefronts: the reference's scalar count,
    which the pricer's dense counter must equal."""
    expected = SharedMemory(spec, elem_bytes).wavefronts(requests)
    offset = np.array([[o for o, _ in requests]], dtype=np.int64)
    count = np.array([[n for _, n in requests]], dtype=np.int64)
    got = instruction_wavefronts(spec, elem_bytes, offset, count)
    assert got.tolist() == [expected]
    return expected


class TestSharedMemoryBanks:
    def setup_method(self):
        self.mem = SharedMemory(RTX4090, elem_bytes=4)

    def test_conflict_free_row(self):
        """32 lanes hitting 32 consecutive words: one wavefront."""
        requests = [(lane, 1) for lane in range(32)]
        assert wavefronts(requests) == 1

    def test_same_bank_stride(self):
        """Stride-32 words all hit bank 0: 32 wavefronts."""
        requests = [(lane * 32, 1) for lane in range(32)]
        assert wavefronts(requests) == 32

    def test_two_way_conflict(self):
        requests = [(lane * 2, 1) for lane in range(32)]
        assert wavefronts(requests) == 2

    def test_broadcast_is_free(self):
        """All lanes reading the same word: one wavefront."""
        requests = [(0, 1) for _ in range(32)]
        assert wavefronts(requests) == 1

    def test_vectorized_access_covers_banks(self):
        """16-byte vectors: each lane covers 4 banks; 32 lanes span
        128 words -> 4 wavefronts (the 128-byte transaction split)."""
        requests = [(lane * 4, 4) for lane in range(32)]
        assert wavefronts(requests) == 4

    def test_subword_sharing(self):
        """1-byte elements, 4 lanes per word: free sharing."""
        requests = [(lane, 1) for lane in range(32)]
        assert wavefronts(requests, elem_bytes=1) == 1

    def test_data_plane(self):
        self.mem.write(5, "x")
        assert self.mem.read(5) == "x"
        assert 5 in self.mem
        with pytest.raises(KeyError):
            self.mem.read(6)

    def test_empty_access(self):
        assert wavefronts([]) == 0


class TestRegisterFile:
    def test_read_write(self):
        rf = empty_file(2, 32)
        write(rf, 1, 5, 3, 42)
        assert rf.read(1, 5, 3) == 42
        assert rf.has(1, 5, 3)
        assert not rf.has(0, 0, 0)
        with pytest.raises(KeyError):
            rf.read(0, 0, 0)

    def test_copy_is_independent(self):
        rf = empty_file(1, 32)
        write(rf, 0, 0, 0, 1)
        clone = rf.copy()
        write(clone, 0, 0, 0, 2)
        assert rf.read(0, 0, 0) == 1

    def test_distributed_data_matches_layout(self):
        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        rf = distributed_data(layout, 4, 32)
        assert_matches_layout(rf, layout)

    def test_assert_catches_mismatch(self):
        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        rf = distributed_data(layout, 4, 32)
        write(rf, 0, 0, 0, -1)
        with pytest.raises(AssertionError):
            assert_matches_layout(rf, layout)


class TestTrace:
    def test_histogram_and_counts(self):
        trace = Trace(RTX4090)
        trace.emit(InstructionKind.SHARED_LOAD, count=3)
        trace.emit(InstructionKind.SHUFFLE, count=2)
        trace.emit(InstructionKind.SHARED_LOAD, count=1)
        assert trace.histogram() == {"ld.shared": 4, "shfl.sync": 2}
        assert trace.count(InstructionKind.SHARED_LOAD) == 4

    def test_zero_count_skipped(self):
        trace = Trace(RTX4090)
        trace.emit(InstructionKind.SHUFFLE, count=0)
        assert not trace.instructions

    def test_dependent_costs_more(self):
        fast = Trace(RTX4090)
        fast.emit(InstructionKind.SHARED_LOAD, count=4, wavefronts=1)
        slow = Trace(RTX4090)
        slow.emit(
            InstructionKind.SHARED_LOAD, count=4, wavefronts=1,
            dependent=True,
        )
        assert slow.cycles() > fast.cycles()


class TestPricingAgreement:
    @pytest.mark.parametrize(
        "spec", [RTX4090, GH200, MI250], ids=lambda s: s.name
    )
    def test_price_matches_machine(self, spec):
        """Static pricing emits exactly the records of executing the
        plan with data on the machine."""
        if spec is MI250:
            src = BlockedLayout((1, 2), (8, 8), (2, 2), (1, 0)).to_linear(
                (32, 64)
            )
            dst = BlockedLayout((1, 4), (4, 16), (2, 2), (1, 0)).to_linear(
                (32, 64)
            )
        else:
            src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
                (32, 64)
            )
            dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = plan_conversion(src, dst, 16, spec=spec)
        priced = price_program(plan.program, spec)
        machine = Machine(spec, num_warps=4)
        registers = distributed_data(src, 4, spec.warp_size)
        _, trace = machine.run_conversion(plan, registers)
        assert priced.instructions == trace.instructions
        assert priced.cycles() == trace.cycles()


class TestGatherExecution:
    def test_shuffle_gather_moves_data(self):
        layout = BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 16)
        )
        machine = Machine(RTX4090, num_warps=4)
        src = distributed_data(layout, 4, 32)
        # index[i, j] = (j + 1) % 16: a rotation along the axis.
        from repro.codegen.views import DistributedView

        view = DistributedView(layout)
        index = empty_file(4, 32)
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = flat_of(view, {REGISTER: r, LANE: l, WARP: w})
                    j = p & 15
                    write(index, w, l, r, (j + 1) % 16)
        out, trace = run_gather(
            machine, gather_shuffle_program(layout, 1), src, index
        )
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = flat_of(view, {REGISTER: r, LANE: l, WARP: w})
                    i, j = p >> 4, p & 15
                    expected = (i << 4) | ((j + 1) % 16)
                    assert out.read(w, l, r) == expected
        assert trace.count(InstructionKind.SHUFFLE) > 0

    def test_shared_gather_agrees_with_shuffle_gather(self):
        layout = BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 16)
        )
        machine = Machine(RTX4090, num_warps=4)
        src = distributed_data(layout, 4, 32)
        from repro.codegen.views import DistributedView

        view = DistributedView(layout)
        index = empty_file(4, 32)
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = flat_of(view, {REGISTER: r, LANE: l, WARP: w})
                    write(index, w, l, r, (p * 7 + 3) % 16)
        out1, _ = run_gather(
            machine, gather_shuffle_program(layout, 1), src, index
        )
        out2, _ = run_gather(
            machine, gather_shared_program(layout, 1), src, index
        )
        assert as_dict(out1) == as_dict(out2)


class TestMachineWarpCount:
    """A machine runs only CTAs it can hold."""

    @pytest.mark.parametrize("num_warps", [0, 3, -4, True, 4.0])
    def test_rejects_invalid_warp_count(self, num_warps):
        with pytest.raises(ValueError, match="num_warps"):
            Machine(RTX4090, num_warps)

    def test_rejects_shared_access_wider_than_the_cta(self):
        """The plan's STS/LDS span 4 warps (128 threads): a 2-warp
        machine refuses it instead of returning a file with holes."""
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = plan_conversion(src, dst, 16, spec=RTX4090)
        assert plan.kind == "shared"
        registers = distributed_data(src, 4, 32)
        with pytest.raises(ValueError, match="128 threads"):
            Machine(RTX4090, 2).run_conversion(plan, registers)
        # A CTA at least as wide runs it.
        for num_warps in (4, 8):
            out, _ = Machine(RTX4090, num_warps).run_conversion(
                plan, registers
            )
            assert_matches_layout(out, dst)

    LAYOUT = BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
        (16, 16)
    )

    @pytest.mark.parametrize(
        "program",
        [
            WarpProgram((MovR(dst_to_src=(1, 0), lanes=32, warps=4),)),
            WarpProgram(
                (
                    Shfl(
                        src_lane=tuple(reversed(range(32))),
                        send_regs=((0, 1),) * 32,
                        recv_regs=((0, 1),) * 32,
                        warps=4,
                    ),
                )
            ),
        ],
        ids=["movr", "shfl"],
    )
    def test_rejects_register_moves_wider_than_the_cta(self, program):
        """A 4-warp move or shuffle on a 2-warp machine raises; on a
        4-warp machine it moves every warp."""
        registers = distributed_data(self.LAYOUT, 4, 32)
        with pytest.raises(ValueError, match="spans 4 warps"):
            Machine(RTX4090, 2).run_program(program, {R_IN: registers})
        files, _ = Machine(RTX4090, 4).run_program(
            program, {R_IN: registers}
        )
        out = files[program.result]
        assert {w for w, _, _ in as_dict(out)} == {0, 1, 2, 3}

    @pytest.mark.parametrize(
        "build", [gather_shuffle_program, gather_shared_program]
    )
    def test_rejects_gathers_wider_than_the_cta(self, build):
        """A gather over a 4-warp layout on a 1-warp machine raises
        instead of filling 4 warps and pricing 1."""
        program = build(self.LAYOUT, 1)
        src = distributed_data(self.LAYOUT, 4, 32)
        index = distributed_data(self.LAYOUT, 4, 32, value_of=lambda p: p & 15)
        inputs = {R_IN: src, R_IDX: index}
        for num_warps in (1, 2):
            with pytest.raises(ValueError, match="spans 4 warps"):
                Machine(RTX4090, num_warps).run_program(program, inputs)
        # The identity gather on a 4-warp machine returns the source.
        out, _ = run_gather(Machine(RTX4090, 4), program, src, index)
        assert_matches_layout(out, self.LAYOUT)

    @pytest.mark.parametrize(
        "build", [gather_shuffle_program, gather_shared_program]
    )
    def test_narrow_inputs_leave_missing_warps_unwritten(self, build):
        """1-warp input files on a 4-warp machine: the register spaces
        span the machine's 4 warps, the gather fills warp 0 from the
        slots the inputs wrote, and the check names the first slot no
        input wrote."""
        program = build(self.LAYOUT, 1)
        regs = self.LAYOUT.in_dim_size(REGISTER)

        def narrow(rf):
            return RegisterFile(*rf.dense(1, 32, regs), 1, 32)

        src = narrow(distributed_data(self.LAYOUT, 4, 32))
        index = narrow(
            distributed_data(self.LAYOUT, 4, 32, value_of=lambda p: p & 15)
        )
        out, _ = run_gather(Machine(RTX4090, 4), program, src, index)
        assert out.num_warps == 4
        assert {w for w, _, _ in as_dict(out)} == {0}
        assert len(out) == 32 * regs
        with pytest.raises(KeyError, match=r"\(w=1, l=0, r=0\)"):
            assert_matches_layout(out, self.LAYOUT)
