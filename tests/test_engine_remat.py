"""Tests for the backward rematerialization pass (Section 4.4)."""

import numpy as np
import pytest

from repro.engine import KernelBuilder, compile
from repro.engine.ir import OpKind
from repro.hardware import RTX4090
from repro.interp import execute_graph
from repro.mxfp import F16, F32


def count_converts(compiled):
    return compiled.graph.count(OpKind.CONVERT_LAYOUT)


class TestRematerialization:
    def test_single_use_load_reanchored(self):
        """A load feeding only a dot operand re-anchors in the operand
        layout; its conversion disappears."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "linear")
        # Without remat: 2 operand conversions + 1 epilogue = 3.
        assert count_converts(compiled) < 3
        loads = [
            op for op in compiled.graph.ops if op.kind == OpKind.LOAD
        ]
        # At least one load now carries a non-blocked (operand) layout.
        from repro.layouts.mma import MmaOperandLayout

        assert any(
            isinstance(ld.output.descriptor, MmaOperandLayout)
            for ld in loads
        )

    def test_elementwise_chain_rematerialized(self):
        """load -> exp -> dot: the unary chain re-anchors too."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        a = kb.elementwise(a, name="exp")
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "linear")
        assert count_converts(compiled) < 3

    def test_multi_use_load_not_rematerialized(self):
        """A load with two consumers keeps its coalesced layout (one
        consumer would pay uncoalesced access otherwise)."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        c = kb.dot(a, b)
        d = kb.elementwise(a, name="exp")  # second use of a
        kb.store(c)
        kb.store(d)
        compiled = compile(kb.graph, RTX4090, "linear")
        loads = [
            op for op in compiled.graph.ops if op.kind == OpKind.LOAD
        ]
        from repro.layouts.blocked import BlockedLayout

        a_load = loads[0]
        assert isinstance(a_load.output.descriptor, BlockedLayout)

    def test_remat_never_increases_cost(self):
        """Compare against a pipeline without the remat pass."""
        from repro.engine import PassManager, standard_passes

        def build():
            kb = KernelBuilder()
            a = kb.load((64, 64), F16)
            b = kb.load((64, 64), F16)
            kb.store(kb.dot(a, b))
            return kb

        with_remat = compile(build().graph, RTX4090, "linear")

        no_remat = PassManager(
            [p for p in standard_passes("linear")
             if p.name != "backward-remat"]
        )
        without = compile(build().graph, RTX4090, "linear", passes=no_remat)
        assert with_remat.cycles() <= without.cycles()

    def test_numerics_preserved_through_remat(self):
        kb = KernelBuilder()
        a = kb.load((32, 32), F16)
        a2 = kb.elementwise(a, name="exp")
        b = kb.load((32, 32), F16)
        kb.store(kb.dot(a2, b))
        rng = np.random.default_rng(21)
        inputs = [rng.standard_normal((32, 32)) * 0.1 for _ in range(2)]
        reference_kb = KernelBuilder()
        ra = reference_kb.load((32, 32), F16)
        ra2 = reference_kb.elementwise(ra, name="exp")
        rb = reference_kb.load((32, 32), F16)
        reference_kb.store(reference_kb.dot(ra2, rb))
        reference = execute_graph(reference_kb.graph, inputs).stores[0]
        compiled = compile(kb.graph, RTX4090, "linear")
        result = execute_graph(compiled, inputs).stores[0]
        assert np.allclose(result, reference)

    def test_legacy_remat_requires_known_descriptor(self):
        """Legacy mode only re-anchors layouts it can name; the
        compilation still succeeds either way."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "legacy")
        assert compiled.ok
