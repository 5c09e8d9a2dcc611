"""Tests for descriptor-level propagation (repro.engine.propagate)."""

import pytest

from repro.core import LANE, REGISTER, WARP
from repro.engine.ir import Op, OpKind
from repro.engine.propagate import (
    collapse_dims_to_one,
    forward_descriptor,
    forward_layout,
)
from repro.layouts import BlockedLayout, NvidiaMmaLayout, SlicedLayout


def op(kind, attrs, inputs=()):
    return Op(kind, list(inputs), None, attrs)


class TestForwardDescriptor:
    def test_blocked_transpose(self):
        desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        out = forward_descriptor(
            op(OpKind.TRANS, {"perm": (1, 0)}), desc
        )
        assert isinstance(out, BlockedLayout)
        assert out.size_per_thread == (2, 1)
        assert out.threads_per_warp == (8, 4)
        assert out.order == (0, 1)

    def test_blocked_transpose_round_trip(self):
        desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        t = op(OpKind.TRANS, {"perm": (1, 0)})
        assert forward_descriptor(t, forward_descriptor(t, desc)) == desc

    def test_mma_transpose_inexpressible(self):
        out = forward_descriptor(
            op(OpKind.TRANS, {"perm": (1, 0)}), NvidiaMmaLayout((2, 2))
        )
        assert out is None

    def test_elementwise_passthrough(self):
        desc = NvidiaMmaLayout((2, 2))
        assert forward_descriptor(
            op(OpKind.ELEMENTWISE, {"name": "add"}), desc
        ) is desc

    def test_reduce_builds_sliced(self):
        from repro.engine.ir import Value
        from repro.mxfp import F32

        value = Value(0, (16, 32), F32)
        reduce_op = Op(OpKind.REDUCE, [value], None, {"axis": 1})
        desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
        out = forward_descriptor(reduce_op, desc)
        assert isinstance(out, SlicedLayout)
        assert out.dim == 1
        assert out.parent_dim_size == 32

    @pytest.mark.parametrize(
        "kind",
        [OpKind.RESHAPE, OpKind.EXPAND_DIMS, OpKind.BROADCAST,
         OpKind.JOIN, OpKind.SPLIT],
    )
    @pytest.mark.parametrize(
        "desc",
        [BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)),
         NvidiaMmaLayout((2, 2))],
        ids=["blocked", "mma"],
    )
    def test_shape_ops_lose_descriptor(self, kind, desc):
        """Legacy expresses no shape op's result, blocked or not."""
        assert forward_descriptor(op(kind, {}), desc) is None


class TestCollapseDims:
    def test_zeroes_axis_coords(self):
        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        small = collapse_dims_to_one(layout, [1])
        assert small.out_dim_sizes() == {"dim0": 16, "dim1": 1}
        assert small.is_surjective()
        # Lanes that indexed dim1 became free (broadcast) bits.
        assert small.free_variable_masks()[LANE] != 0

    def test_broadcast_from_collapsed_is_consistent(self):
        """collapse + forward broadcast lands back on the original
        ownership pattern for the kept dim."""
        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        small = collapse_dims_to_one(layout, [1])
        for lane in (0, 5, 31):
            a = layout.apply({REGISTER: 0, LANE: lane, WARP: 0})
            b = small.apply({REGISTER: 0, LANE: lane, WARP: 0})
            assert a["dim0"] == b["dim0"]


class TestForwardLayoutErrors:
    def test_unknown_kind_raises(self):
        layout = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        with pytest.raises(ValueError):
            forward_layout(op(OpKind.LOAD, {}), layout)
