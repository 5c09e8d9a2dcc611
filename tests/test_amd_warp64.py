"""AMD-specific paths: 64-lane wavefronts through every codegen stage."""

import pytest

from repro.codegen import classify_conversion, plan_conversion
from repro.codegen.shuffles import plan_warp_shuffle
from repro.core import LANE, REGISTER, WARP
from repro.gpusim import Machine, distributed_data
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import MI250
from repro.layouts import AmdMfmaLayout, BlockedLayout


def blocked64(size_per_thread, threads, warps, order=(1, 0)):
    return BlockedLayout(size_per_thread, threads, warps, order)


class TestWarp64Shuffles:
    def test_shuffle_covers_64_lanes(self):
        a = blocked64((1, 2), (16, 4), (2, 2)).to_linear((64, 64))
        b = blocked64((2, 1), (8, 8), (2, 2)).to_linear((64, 64))
        rounds = plan_warp_shuffle(a, b, elem_bits=16)
        for rnd in rounds:
            assert sorted(set(rnd.src_lane)) == list(range(64))

    def test_shuffle_conversion_verified(self):
        a = blocked64((1, 2), (16, 4), (2, 2)).to_linear((64, 64))
        b = blocked64((2, 1), (8, 8), (2, 2)).to_linear((64, 64))
        plan = plan_conversion(a, b, 16, spec=MI250)
        assert plan.kind == "shuffle"
        registers = distributed_data(a, 4, 64)
        converted, _ = Machine(MI250, 4).run_conversion(plan, registers)
        assert_matches_layout(converted, b)


class TestMfmaConversions:
    def test_blocked_to_mfma_shared(self):
        a = blocked64((1, 4), (16, 4), (2, 2)).to_linear((64, 64))
        b = AmdMfmaLayout((2, 2)).to_linear((64, 64))
        plan = plan_conversion(a, b, 16, spec=MI250)
        registers = distributed_data(a, 4, 64)
        converted, trace = Machine(MI250, 4).run_conversion(
            plan, registers
        )
        assert_matches_layout(converted, b)
        # No ldmatrix on MI250 (Table 2 / Section 6.2).
        assert "ldmatrix" not in trace.histogram()

    def test_mfma_epilogue(self):
        a = AmdMfmaLayout((2, 2)).to_linear((64, 64))
        b = blocked64((1, 4), (16, 4), (2, 2)).to_linear((64, 64))
        plan = plan_conversion(a, b, 32, spec=MI250)
        registers = distributed_data(a, 4, 64)
        converted, _ = Machine(MI250, 4).run_conversion(plan, registers)
        assert_matches_layout(converted, b)


class TestBankModelOn64Lanes:
    def test_full_wavefront_sweep(self):
        from tests.program_reference import SharedMemory

        mem = SharedMemory(MI250, elem_bytes=4)
        # 64 lanes over 64 consecutive words = two 128B rows: the
        # 32-bank model serves two words per bank.
        requests = [(lane, 1) for lane in range(64)]
        assert mem.wavefronts(requests) == 2


class TestGraphExecutionOn64Lanes:
    def test_execute_graph_simulates_mi250_conversions(self):
        """A compiled MI250 kernel's conversions run on the MI250
        machine.

        The executor used to plan every conversion for a 32-lane GPU
        and size its machine the same way, so 64-lane layouts asked
        for gigabyte register files.
        """
        import numpy as np

        from repro.engine import compile
        from repro.interp import execute_graph
        from repro.kernels.models import build_template_attention

        rng = np.random.default_rng(11)
        inputs = [rng.standard_normal((64, 64)) for _ in range(3)]
        reference = execute_graph(
            build_template_attention(64, 64, 1).graph, inputs
        ).stores[0]
        compiled = compile(
            build_template_attention(64, 64, 1).graph, MI250, "linear"
        )
        result = execute_graph(compiled, inputs)
        assert result.conversion_traces
        assert all(t.spec is MI250 for t in result.conversion_traces)
        assert np.allclose(result.stores[0], reference)
