"""Error-path tests for the interpreter and builder."""

import numpy as np
import pytest

from dataclasses import replace

from repro.core.errors import DimensionError
from repro.engine import KernelBuilder, compile
from repro.hardware import RTX4090
from repro.interp import execute_graph
from repro.mxfp import F16, F32, I64


class TestBuilderValidation:
    def test_elementwise_shape_mismatch(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        b = kb.load((4, 8), F32)
        with pytest.raises(DimensionError):
            kb.elementwise(a, b)

    def test_dot_shape_mismatch(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        b = kb.load((8, 4), F32)
        with pytest.raises(DimensionError):
            kb.dot(a, b)

    def test_reduce_axis_range(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        with pytest.raises(DimensionError):
            kb.reduce(a, axis=2)

    def test_scan_axis_range(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        with pytest.raises(DimensionError):
            kb.scan(a, axis=5)

    def test_reshape_size_mismatch(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        with pytest.raises(DimensionError):
            kb.reshape(a, (4, 8))

    def test_broadcast_incompatible(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        with pytest.raises(DimensionError):
            kb.broadcast(a, (4, 8))

    def test_join_shape_mismatch(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        b = kb.load((4, 8), F32)
        with pytest.raises(DimensionError):
            kb.join(a, b)

    def test_split_needs_pair_dim(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        with pytest.raises(DimensionError):
            kb.split(a)

    def test_gather_shape_mismatch(self):
        kb = KernelBuilder()
        a = kb.load((4, 4), F32)
        idx = kb.load((4, 8), I64)
        with pytest.raises(DimensionError):
            kb.gather(a, idx, axis=1)


class TestInterpreterErrors:
    def test_unknown_scan_op(self):
        kb = KernelBuilder()
        x = kb.load((4, 4), F32)
        kb.store(kb.scan(x, axis=1, op="median"))
        with pytest.raises(ValueError):
            execute_graph(kb.graph, [np.zeros((4, 4))])

    def test_unknown_elementwise_name(self):
        kb = KernelBuilder()
        x = kb.load((4,), F32)
        kb.store(kb.elementwise(x, name="sigmoid"))
        with pytest.raises(KeyError):
            execute_graph(kb.graph, [np.zeros(4)])

    def test_too_few_inputs(self):
        kb = KernelBuilder()
        kb.store(kb.elementwise(kb.load((4,), F32), kb.load((4,), F32)))
        with pytest.raises(ValueError, match="2 LOAD ops, got 1 inputs"):
            execute_graph(kb.graph, [np.zeros(4)])

    def test_extra_inputs(self):
        kb = KernelBuilder()
        kb.store(kb.elementwise(kb.load((4,), F32), kb.load((4,), F32)))
        with pytest.raises(ValueError, match="2 LOAD ops, got 3 inputs"):
            execute_graph(kb.graph, [np.zeros(4)] * 3)

    def test_failed_compile(self):
        kb = KernelBuilder()
        kb.store(kb.scan(kb.load((64, 64), F32), axis=1, reverse=True))
        compiled = compile(kb.graph, RTX4090, "legacy")
        assert not compiled.ok
        with pytest.raises(ValueError, match="failed compile"):
            execute_graph(compiled, [np.zeros((64, 64))])

    def test_conversion_without_a_plan(self):
        kb = KernelBuilder()
        kb.store(kb.dot(kb.load((64, 64), F16), kb.load((64, 64), F16)))
        compiled = compile(kb.graph, RTX4090, "linear")
        assert compiled.conversions
        truncated = replace(compiled, conversions=compiled.conversions[1:])
        with pytest.raises(ValueError, match="plans"):
            execute_graph(truncated, [np.zeros((64, 64))] * 2)

    def test_graph_repr(self):
        kb = KernelBuilder()
        x = kb.load((4,), F32)
        kb.store(x)
        text = repr(kb.graph)
        assert "load" in text and "store" in text
