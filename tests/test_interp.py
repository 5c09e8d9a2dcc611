"""Tests for the NumPy reference interpreter."""

import numpy as np
import pytest

from repro.engine import KernelBuilder
from repro.interp import execute_graph
from repro.mxfp import F16, F32, F64, I64


class TestBasics:
    def test_load_store(self):
        kb = KernelBuilder()
        x = kb.load((4, 4), F32)
        kb.store(x)
        data = np.arange(16.0).reshape(4, 4)
        result = execute_graph(kb.graph, [data])
        assert np.array_equal(result.stores[0], data)

    def test_shape_validation(self):
        kb = KernelBuilder()
        kb.store(kb.load((4, 4), F32))
        with pytest.raises(ValueError):
            execute_graph(kb.graph, [np.zeros((2, 2))])

    def test_quantization_at_load(self):
        kb = KernelBuilder()
        kb.store(kb.load((1, 4), F16))
        data = np.array([[1.0, 1e-9, 65504.0, 1.0002441]])
        out = execute_graph(kb.graph, [data]).stores[0]
        assert out[0, 0] == 1.0
        assert out[0, 1] != 1e-9 or out[0, 1] == 0.0
        # quantization can be disabled
        raw = execute_graph(
            kb.graph, [data], quantize_inputs=False
        ).stores[0]
        assert np.array_equal(raw, data)


class TestOps:
    def test_elementwise_suite(self):
        kb = KernelBuilder()
        a = kb.load((8,), F64)
        b = kb.load((8,), F64)
        kb.store(kb.elementwise(a, b, name="add"))
        kb.store(kb.elementwise(a, b, name="sub"))
        kb.store(kb.elementwise(a, b, name="mul"))
        kb.store(kb.elementwise(a, name="exp"))
        va = np.arange(8.0)
        vb = np.ones(8) * 2
        res = execute_graph(kb.graph, [va, vb])
        assert np.array_equal(res.stores[0], va + vb)
        assert np.array_equal(res.stores[1], va - vb)
        assert np.array_equal(res.stores[2], va * vb)
        assert np.allclose(res.stores[3], np.exp(va))

    def test_reduce_ops(self):
        kb = KernelBuilder()
        x = kb.load((4, 8), F64)
        kb.store(kb.reduce(x, axis=1, op="sum"))
        kb.store(kb.reduce(x, axis=0, op="max"))
        data = np.arange(32.0).reshape(4, 8)
        res = execute_graph(kb.graph, [data])
        assert np.array_equal(res.stores[0], data.sum(axis=1))
        assert np.array_equal(res.stores[1], data.max(axis=0))

    def test_shape_op_suite(self):
        kb = KernelBuilder()
        x = kb.load((4, 8), F64)
        kb.store(kb.trans(x))
        kb.store(kb.reshape(x, (8, 4)))
        kb.store(kb.broadcast(kb.expand_dims(
            kb.reduce(x, axis=1), 1), (4, 8)))
        data = np.arange(32.0).reshape(4, 8)
        res = execute_graph(kb.graph, [data])
        assert np.array_equal(res.stores[0], data.T)
        assert np.array_equal(res.stores[1], data.reshape(8, 4))
        assert np.array_equal(
            res.stores[2],
            np.broadcast_to(data.sum(1)[:, None], (4, 8)),
        )

    def test_join_split(self):
        kb = KernelBuilder()
        a = kb.load((4,), F64)
        b = kb.load((4,), F64)
        joined = kb.join(a, b)
        x0, x1 = kb.split(joined)
        kb.store(x0)
        kb.store(x1)
        va, vb = np.arange(4.0), np.arange(4.0) * 10
        res = execute_graph(kb.graph, [va, vb])
        assert np.array_equal(res.stores[0], va)
        assert np.array_equal(res.stores[1], vb)

    def test_gather(self):
        kb = KernelBuilder()
        src = kb.load((4, 8), F64)
        idx = kb.load((4, 8), I64)
        kb.store(kb.gather(src, idx, axis=1))
        data = np.arange(32.0).reshape(4, 8)
        indices = (np.arange(32).reshape(4, 8) * 3) % 8
        res = execute_graph(kb.graph, [data, indices])
        expected = np.take_along_axis(data, indices, axis=1)
        assert np.array_equal(res.stores[0], expected)

    def test_dot_uses_emulation(self):
        kb = KernelBuilder()
        a = kb.load((8, 16), F16)
        b = kb.load((16, 4), F16)
        kb.store(kb.dot(a, b))
        rng = np.random.default_rng(0)
        va = rng.standard_normal((8, 16))
        vb = rng.standard_normal((16, 4))
        res = execute_graph(kb.graph, [va, vb])
        assert np.allclose(res.stores[0], va @ vb, atol=0.5)


class TestSimulatedConversions:
    def test_nan_and_inf_pass_a_conversion(self):
        """A compiled kernel's conversions move NaN, ±inf and -0.0 like
        any other value: the slot check passes a slot holding the NaN
        it should hold, and the store equals the source graph's."""
        from repro.engine import compile
        from repro.hardware import RTX4090
        from repro.engine.ir import OpKind

        def build():
            kb = KernelBuilder()
            kb.store(kb.dot(kb.load((64, 64), F16), kb.load((64, 64), F16)))
            return kb.graph

        a = np.ones((64, 64))
        a[3, 5], a[7, 1], a[0, 0] = np.nan, np.inf, -0.0
        b = np.ones((64, 64))
        b[2, 2] = -np.inf
        compiled = compile(build(), RTX4090, "linear")
        converts = [
            op for op in compiled.graph.ops
            if op.kind == OpKind.CONVERT_LAYOUT
        ]
        assert converts
        with np.errstate(invalid="ignore"):
            want = execute_graph(build(), [a, b]).stores[0]
            got = execute_graph(compiled, [a, b])
        assert len(got.conversion_traces) == len(converts)
        assert np.isnan(want).any() and np.isinf(want).any()
        assert np.array_equal(got.stores[0], want, equal_nan=True)
