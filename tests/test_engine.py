"""Layout engine tests: anchors, propagation, conversions, costs."""

import numpy as np
import pytest

from repro.engine import KernelBuilder, compile
from repro.engine.ir import OpKind
from repro.hardware import GH200, MI250, RTX4090
from repro.hardware.instructions import InstructionKind
from repro.interp import execute_graph
from repro.mxfp import BF16, F16, F32, F8E5M2, I16, I8


def gemm_builder(m=64, n=64, k=64, a=F16, b=F16):
    kb = KernelBuilder("gemm")
    x = kb.load((m, k), a)
    w = kb.load((k, n), b)
    kb.store(kb.dot(x, w))
    return kb


class TestAnchors:
    def test_load_gets_blocked_layout(self):
        kb = KernelBuilder()
        x = kb.load((64, 64), F16)
        compile(kb.graph, RTX4090, "linear")
        assert x.layout is not None
        assert x.layout.total_out_size() == 64 * 64

    def test_dot_gets_platform_flavor(self):
        from repro.layouts import (
            AmdMfmaLayout, NvidiaMmaLayout, WgmmaLayout,
        )

        expectations = [
            (RTX4090, NvidiaMmaLayout),
            (GH200, WgmmaLayout),
            (MI250, AmdMfmaLayout),
        ]
        for spec, expected in expectations:
            kb = gemm_builder()
            compiled = compile(kb.graph, spec, "linear")
            dots = [
                op for op in compiled.graph.ops
                if op.kind == OpKind.DOT
            ]
            assert isinstance(dots[0].output.descriptor, expected), spec


class TestConversionInsertion:
    def test_gemm_epilogue_conversion(self):
        """dot result (mma layout) -> store anchor (blocked)."""
        kb = gemm_builder()
        compiled = compile(kb.graph, RTX4090, "linear")
        assert compiled.graph.count(OpKind.CONVERT_LAYOUT) >= 1

    def test_elementwise_unifies_layouts(self):
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        c = kb.dot(a, b)
        d = kb.load((64, 64), F32)
        kb.store(kb.elementwise(c, d, name="add"))
        compiled = compile(kb.graph, RTX4090, "linear")
        for op in compiled.graph.ops:
            if op.kind == OpKind.ELEMENTWISE:
                layouts = {id(v.layout) for v in op.inputs}
                maps = [v.layout for v in op.inputs]
                assert maps[0].equivalent(maps[1])
                del layouts

    def test_welford_noop_detection(self):
        """Linear mode removes the sliced->blocked conversion that
        legacy cannot even compare (Section 6.2)."""
        def build():
            kb = KernelBuilder()
            part = kb.load((128, 1), F32)
            combined = kb.reduce(part, axis=1, op="sum")
            kb.store(combined)
            return kb

        linear = compile(build().graph, RTX4090, "linear")
        legacy = compile(build().graph, RTX4090, "legacy")
        assert linear.graph.count(OpKind.CONVERT_LAYOUT) == 0
        assert legacy.graph.count(OpKind.CONVERT_LAYOUT) == 1

    def test_broadcast_remat_converts_small_tensor(self):
        """The conversion lands on the [rows, 1] tensor, not the
        [rows, cols] one."""
        kb = KernelBuilder()
        x = kb.load((64, 64), F32)
        mx = kb.reduce(x, axis=1, op="max")
        mx2 = kb.broadcast(kb.expand_dims(mx, 1), (64, 64))
        kb.store(kb.elementwise(x, mx2, name="sub"))
        compiled = compile(kb.graph, RTX4090, "linear")
        for op in compiled.graph.ops:
            if op.kind == OpKind.CONVERT_LAYOUT:
                assert op.inputs[0].shape in ((64, 1), (64, 64))
                if op.inputs[0].shape == (64, 1):
                    break

    def test_legacy_mma_transpose_bounces_through_blocked(self):
        def build():
            kb = KernelBuilder()
            a = kb.load((64, 64), F16)
            b = kb.load((64, 64), F16)
            c = kb.dot(a, b)
            kb.store(kb.trans(c))
            return kb

        linear = compile(build().graph, RTX4090, "linear")
        legacy = compile(build().graph, RTX4090, "legacy")
        assert legacy.graph.count(OpKind.CONVERT_LAYOUT) >= (
            linear.graph.count(OpKind.CONVERT_LAYOUT)
        )


class TestFailureModes:
    def test_legacy_unsupported_conversion_fails_compile(self):
        """A value stuck in an MMA-input layout has no legacy path back
        to blocked: compilation reports the failure, as in Table 4."""
        from repro.core.errors import LegacyUnsupportedError
        from repro.layouts import MmaOperandLayout, NvidiaMmaLayout
        from repro.layouts.legacy import LegacyLayoutSystem

        from repro.engine.passes import AnchorCatalog

        legacy = LegacyLayoutSystem()
        operand = MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2)
        blocked_anchor = AnchorCatalog(RTX4090, 4).blocked_anchor(
            (64, 64), F16
        )[0]
        with pytest.raises(LegacyUnsupportedError):
            legacy.check_conversion(operand, blocked_anchor)

    def test_compiled_kernel_flags_errors(self):
        from repro.core.errors import LegacyUnsupportedError
        from repro.engine.engine import CompiledKernel
        from repro.gpusim import Trace

        ck = CompiledKernel(
            graph=None, trace=Trace(RTX4090), mode="legacy",
            error="nope",
        )
        assert not ck.ok

    @pytest.mark.parametrize("num_warps", [0, 3, -4, True, 4.0])
    def test_bad_num_warps_rejected(self, num_warps):
        from repro.engine import CompilationContext, KernelBuilder

        with pytest.raises(ValueError, match="num_warps"):
            compile(KernelBuilder().graph, RTX4090, num_warps=num_warps)
        with pytest.raises(ValueError, match="num_warps"):
            CompilationContext.create(
                KernelBuilder().graph, RTX4090, num_warps=num_warps
            )


class TestCosts:
    def test_linear_never_slower_on_suite(self):
        for spec in (RTX4090, GH200, MI250):
            lin = compile(gemm_builder().graph, spec, "linear")
            leg = compile(gemm_builder().graph, spec, "legacy")
            assert lin.cycles() <= leg.cycles() * 1.1, spec.name

    def test_op_counts_structure(self):
        compiled = compile(gemm_builder().graph, RTX4090, "linear")
        counts = compiled.op_counts()
        assert set(counts) == {
            "convert_layout", "local_load", "local_store",
        }

    @pytest.mark.parametrize("spec", [RTX4090, MI250])
    def test_local_counts_include_matrix_instructions(self, spec):
        """Table 6 counts ldmatrix/stmatrix as local loads/stores."""
        compiled = compile(gemm_builder().graph, spec, "linear")
        counts, trace = compiled.op_counts(), compiled.trace
        assert counts["local_load"] == trace.count(
            InstructionKind.SHARED_LOAD
        ) + trace.count(InstructionKind.LDMATRIX)
        assert counts["local_store"] == trace.count(
            InstructionKind.SHARED_STORE
        ) + trace.count(InstructionKind.STMATRIX)
        assert counts["local_load"] > 0

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            compile(gemm_builder().graph, RTX4090, "turbo")


class TestNumericPreservation:
    def test_gemm_numerics_survive_compilation(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((64, 64))
        b = rng.standard_normal((64, 64))
        kb = gemm_builder()
        reference = execute_graph(
            gemm_builder().graph, [a, b]
        ).stores[0]
        compiled = compile(kb.graph, RTX4090, "linear")
        result = execute_graph(compiled, [a, b]).stores[0]
        assert np.allclose(result, reference)

    def test_attention_numerics_survive_compilation(self):
        from repro.kernels.models import build_template_attention

        rng = np.random.default_rng(11)
        inputs = [
            rng.standard_normal(s)
            for s in [(64, 64)] * 3
        ]
        kb = build_template_attention(seq=64, head=64, kv_iters=1)
        reference = execute_graph(
            build_template_attention(64, 64, 1).graph, inputs
        ).stores[0]
        compiled = compile(kb.graph, GH200, "linear")
        result = execute_graph(compiled, inputs).stores[0]
        assert np.allclose(result, reference)
