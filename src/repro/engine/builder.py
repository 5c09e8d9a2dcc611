"""Kernel construction API — the Triton-language surface of the IR.

A kernel model is a Python function over a :class:`KernelBuilder`,
mirroring the structure of the Triton kernel it models: loads, shape
operations, dots, reductions, stores.  Shapes are the *tile* shapes
one program instance (CTA) handles, exactly as in Triton.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.errors import DimensionError
from repro.engine.ir import Graph, Op, OpKind, Value
from repro.mxfp.types import DType, F32


class KernelBuilder:
    """Builds the op graph of one kernel."""

    def __init__(self, name: str = "kernel"):
        self.name = name
        self.graph = Graph()

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def load(self, shape: Sequence[int], dtype: DType) -> Value:
        """A global load of a tile (an anchor op)."""
        out = self.graph.new_value(tuple(shape), dtype)
        self.graph.add(Op(OpKind.LOAD, [], out, {}))
        return out

    def store(self, value: Value) -> None:
        """A global store (an anchor op)."""
        self.graph.add(Op(OpKind.STORE, [value], None, {}))

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def elementwise(self, *inputs: Value, name: str = "add") -> Value:
        """An elementwise op over same-shape operands."""
        shape = inputs[0].shape
        for v in inputs[1:]:
            if v.shape != shape:
                raise DimensionError(
                    f"elementwise shape mismatch: {v.shape} vs {shape}"
                )
        out = self.graph.new_value(shape, inputs[0].dtype)
        self.graph.add(Op(OpKind.ELEMENTWISE, list(inputs), out,
                          {"name": name}))
        return out

    def dot(self, a: Value, b: Value) -> Value:
        """``tt.dot``: (M, K) x (K, N) -> (M, N) with an F32
        accumulator — an anchor op."""
        if len(a.shape) != 2 or len(b.shape) != 2 or a.shape[1] != b.shape[0]:
            raise DimensionError(
                f"dot shape mismatch: {a.shape} x {b.shape}"
            )
        out = self.graph.new_value((a.shape[0], b.shape[1]), F32)
        self.graph.add(Op(OpKind.DOT, [a, b], out, {}))
        return out

    def reduce(self, value: Value, axis: int, op: str = "sum") -> Value:
        """``tt.reduce``: collapse one axis with sum/max/min."""
        if not 0 <= axis < len(value.shape):
            raise DimensionError(f"reduce axis {axis} out of range")
        shape = tuple(
            s for i, s in enumerate(value.shape) if i != axis
        )
        out = self.graph.new_value(shape, value.dtype)
        self.graph.add(
            Op(OpKind.REDUCE, [value], out, {"axis": axis, "op": op})
        )
        return out

    def scan(
        self,
        value: Value,
        axis: int,
        op: str = "sum",
        reverse: bool = False,
    ) -> Value:
        """``tl.associative_scan`` / ``tl.cumsum`` along an axis.

        The paper cites two legacy miscompiles here (duplicated data
        in sliced layouts, and ``reverse=True``); the linear engine
        handles both (Section 5.1's duplicate detection makes the scan
        combine only distinct elements).
        """
        if not 0 <= axis < len(value.shape):
            raise DimensionError(f"scan axis {axis} out of range")
        out = self.graph.new_value(value.shape, value.dtype)
        self.graph.add(
            Op(
                OpKind.SCAN,
                [value],
                out,
                {"axis": axis, "op": op, "reverse": reverse},
            )
        )
        return out

    def gather(self, src: Value, index: Value, axis: int) -> Value:
        """``tl.gather``: pick elements along ``axis`` by index."""
        if src.shape != index.shape:
            raise DimensionError("gather src/index shapes must match")
        out = self.graph.new_value(src.shape, src.dtype)
        self.graph.add(
            Op(OpKind.GATHER, [src, index], out, {"axis": axis})
        )
        return out

    # ------------------------------------------------------------------
    # Shape operations (Section 4.4)
    # ------------------------------------------------------------------
    def trans(self, value: Value, perm: Optional[Sequence[int]] = None) -> Value:
        """``tt.trans``: permute dims (default: reverse)."""
        rank = len(value.shape)
        if perm is None:
            perm = list(range(rank - 1, -1, -1))
        shape = tuple(value.shape[p] for p in perm)
        out = self.graph.new_value(shape, value.dtype)
        self.graph.add(
            Op(OpKind.TRANS, [value], out, {"perm": tuple(perm)})
        )
        return out

    def reshape(self, value: Value, shape: Sequence[int]) -> Value:
        """``tt.reshape``: row-major reshape to a new shape."""
        total_old = 1
        for s in value.shape:
            total_old *= s
        total_new = 1
        for s in shape:
            total_new *= s
        if total_old != total_new:
            raise DimensionError(
                f"reshape {value.shape} -> {list(shape)} changes size"
            )
        out = self.graph.new_value(tuple(shape), value.dtype)
        self.graph.add(
            Op(OpKind.RESHAPE, [value], out, {"shape": tuple(shape)})
        )
        return out

    def expand_dims(self, value: Value, axis: int) -> Value:
        """``tt.expand_dims``: insert a size-1 dim at ``axis``."""
        shape = list(value.shape)
        shape.insert(axis, 1)
        out = self.graph.new_value(tuple(shape), value.dtype)
        self.graph.add(
            Op(OpKind.EXPAND_DIMS, [value], out, {"axis": axis})
        )
        return out

    def broadcast(self, value: Value, shape: Sequence[int]) -> Value:
        """``tt.broadcast``: grow size-1 dims to ``shape``."""
        for old, new in zip(value.shape, shape):
            if old != new and old != 1:
                raise DimensionError(
                    f"cannot broadcast {value.shape} -> {list(shape)}"
                )
        out = self.graph.new_value(tuple(shape), value.dtype)
        self.graph.add(
            Op(OpKind.BROADCAST, [value], out, {"shape": tuple(shape)})
        )
        return out

    def join(self, a: Value, b: Value) -> Value:
        """``tt.join``: stack two tensors into a trailing pair dim."""
        if a.shape != b.shape:
            raise DimensionError("join operands must share a shape")
        out = self.graph.new_value(tuple(a.shape) + (2,), a.dtype)
        self.graph.add(Op(OpKind.JOIN, [a, b], out, {}))
        return out

    def split(self, value: Value) -> Tuple[Value, Value]:
        """``tt.split``: the inverse of join (trailing dim of 2)."""
        if value.shape[-1] != 2:
            raise DimensionError("split needs a trailing dim of size 2")
        shape = value.shape[:-1]
        out0 = self.graph.new_value(shape, value.dtype)
        out1 = self.graph.new_value(shape, value.dtype)
        # Model split as two ops sharing the input (one per output) so
        # the single-output IR stays simple.
        self.graph.add(Op(OpKind.SPLIT, [value], out0, {"index": 0}))
        self.graph.add(Op(OpKind.SPLIT, [value], out1, {"index": 1}))
        return out0, out1
