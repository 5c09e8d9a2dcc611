"""Tests for the simulated GPU: banked memory, register files, traces,
machine execution, and pricing/machine agreement."""

import pytest

from repro.codegen import plan_conversion
from repro.codegen.gather import gather_shared_program, gather_shuffle_program
from repro.core import LANE, REGISTER, WARP
from repro.gpusim import (
    Machine,
    RegisterFile,
    SharedMemory,
    Trace,
    distributed_data,
)
from repro.gpusim.opcost import price_program
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250, RTX4090
from repro.hardware.instructions import InstructionKind
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from repro.program import R_IDX, R_IN


def run_gather(machine, program, src, index):
    """(gathered registers, trace) of one gather program's run."""
    files, trace = machine.run_program(program, {R_IN: src, R_IDX: index})
    return files[program.result], trace


class TestSharedMemoryBanks:
    def setup_method(self):
        self.mem = SharedMemory(RTX4090, elem_bytes=4)

    def test_conflict_free_row(self):
        """32 lanes hitting 32 consecutive words: one wavefront."""
        requests = [(lane, 1) for lane in range(32)]
        assert self.mem.wavefronts(requests) == 1

    def test_same_bank_stride(self):
        """Stride-32 words all hit bank 0: 32 wavefronts."""
        requests = [(lane * 32, 1) for lane in range(32)]
        assert self.mem.wavefronts(requests) == 32

    def test_two_way_conflict(self):
        requests = [(lane * 2, 1) for lane in range(32)]
        assert self.mem.wavefronts(requests) == 2

    def test_broadcast_is_free(self):
        """All lanes reading the same word: one wavefront."""
        requests = [(0, 1) for _ in range(32)]
        assert self.mem.wavefronts(requests) == 1

    def test_vectorized_access_covers_banks(self):
        """16-byte vectors: each lane covers 4 banks; 32 lanes span
        128 words -> 4 wavefronts (the 128-byte transaction split)."""
        requests = [(lane * 4, 4) for lane in range(32)]
        assert self.mem.wavefronts(requests) == 4

    def test_subword_sharing(self):
        """1-byte elements, 4 lanes per word: free sharing."""
        mem = SharedMemory(RTX4090, elem_bytes=1)
        requests = [(lane, 1) for lane in range(32)]
        assert mem.wavefronts(requests) == 1

    def test_data_plane(self):
        self.mem.write(5, "x")
        assert self.mem.read(5) == "x"
        assert 5 in self.mem
        with pytest.raises(KeyError):
            self.mem.read(6)

    def test_empty_access(self):
        assert self.mem.wavefronts([]) == 0


class TestRegisterFile:
    def test_read_write(self):
        rf = RegisterFile(2, 32)
        rf.write(1, 5, 3, 42)
        assert rf.read(1, 5, 3) == 42
        assert rf.has(1, 5, 3)
        assert not rf.has(0, 0, 0)
        with pytest.raises(KeyError):
            rf.read(0, 0, 0)

    def test_copy_is_independent(self):
        rf = RegisterFile(1, 32)
        rf.write(0, 0, 0, 1)
        clone = rf.copy()
        clone.write(0, 0, 0, 2)
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
        rf.write(0, 0, 0, -1)
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
        assert trace.shared_instruction_count() == 4

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
        index = RegisterFile(4, 32)
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = view.flat_of({REGISTER: r, LANE: l, WARP: w})
                    j = p & 15
                    index.write(w, l, r, (j + 1) % 16)
        out, trace = run_gather(
            machine, gather_shuffle_program(layout, 1), src, index
        )
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = view.flat_of({REGISTER: r, LANE: l, WARP: w})
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
        index = RegisterFile(4, 32)
        for w in range(4):
            for l in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = view.flat_of({REGISTER: r, LANE: l, WARP: w})
                    index.write(w, l, r, (p * 7 + 3) % 16)
        out1, _ = run_gather(
            machine, gather_shuffle_program(layout, 1), src, index
        )
        out2, _ = run_gather(
            machine, gather_shared_program(layout, 1), src, index
        )
        assert out1.as_dict() == out2.as_dict()
