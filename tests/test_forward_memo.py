"""The memo keys of the forward layout transfers.

:func:`repro.engine.propagate.forward_layout` and
:func:`~repro.engine.propagate.collapse_dims_to_one` are memoized in
the ``derivations`` cache.  A key that left out anything a transfer
reads would hand one op another op's layout, so every case below runs
ops that differ in exactly one such input through the warm cache, and
checks each result against the uncached transfer and against the
result with caching off.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro import cache
from repro.bench.fig9 import compile_case
from repro.core.reshape import (
    broadcast_layout,
    expand_dims_layout,
    reshape_layout,
    transpose_layout,
)
from repro.engine import propagate
from repro.engine.ir import Op, OpKind, Value
from repro.kernels import KERNELS
from repro.layouts import BlockedLayout
from repro.layouts.sliced import slice_linear_layout
from repro.mxfp.types import F32


def _op(kind, in_shape, **attrs):
    value = Value(vid=0, shape=tuple(in_shape), dtype=F32)
    return Op(kind, [value], None, attrs)


def _blocked(shape, size_per_thread, threads, warps, order):
    return BlockedLayout(size_per_thread, threads, warps, order).to_linear(
        shape
    )


ROW = _blocked((1, 64), (1, 2), (1, 32), (1, 1), (1, 0))
TILE = _blocked((16, 32), (2, 2), (4, 8), (2, 1), (1, 0))
CUBE = _blocked((4, 8, 16), (1, 2, 2), (2, 4, 4), (2, 1, 1), (2, 1, 0))

#: (name, input layout, [(op, expected uncached result)]).
CASES = [
    (
        "broadcast target shapes",
        ROW,
        [
            (_op(OpKind.BROADCAST, (1, 64), shape=(n, 64)),
             broadcast_layout(ROW, 0, n))
            for n in (2, 8, 16)
        ],
    ),
    (
        "broadcast input shapes",
        ROW,
        [
            (_op(OpKind.BROADCAST, (1, 64), shape=(8, 64)),
             broadcast_layout(ROW, 0, 8)),
            # Same layout and target: the transfer reads the input
            # shape, and there is no size-1 axis to broadcast.
            (_op(OpKind.BROADCAST, (8, 64), shape=(8, 64)), ROW),
        ],
    ),
    (
        "reshape shapes",
        TILE,
        [
            (_op(OpKind.RESHAPE, (16, 32), shape=shape),
             reshape_layout(TILE, shape))
            for shape in ((512,), (8, 64), (32, 16), (4, 4, 32))
        ],
    ),
    (
        "trans perms",
        CUBE,
        [
            (_op(OpKind.TRANS, (4, 8, 16), perm=perm),
             transpose_layout(CUBE, perm))
            for perm in ((0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 2, 1))
        ],
    ),
    (
        "reduce axes",
        CUBE,
        [
            (_op(OpKind.REDUCE, (4, 8, 16), axis=axis, op="sum"),
             slice_linear_layout(CUBE, axis))
            for axis in (0, 1, 2)
        ],
    ),
    (
        "expand_dims axes",
        TILE,
        [
            (_op(OpKind.EXPAND_DIMS, (16, 32), axis=axis),
             expand_dims_layout(TILE, axis))
            for axis in (0, 1, 2)
        ],
    ),
]


@pytest.mark.parametrize(
    "layout, ops", [(c[1], c[2]) for c in CASES], ids=[c[0] for c in CASES]
)
def test_forward_keys_cover_every_input(layout, ops):
    cache.clear()
    with cache.disabled():
        uncached = [propagate.forward_layout(op, layout) for op, _ in ops]
    warm = [propagate.forward_layout(op, layout) for op, _ in ops]
    again = [propagate.forward_layout(op, layout) for op, _ in ops]
    expected = [want for _, want in ops]
    assert len(set(expected)) == len(expected)  # each input matters
    assert uncached == expected
    assert warm == expected
    assert again == expected
    # The second round came from the cache.
    assert all(a is b for a, b in zip(warm, again))


def test_collapse_keys_cover_the_axes():
    cache.clear()
    axes_list = [(), (0,), (1,), (0, 1), (1, 0, 1)]
    with cache.disabled():
        uncached = [propagate.collapse_dims_to_one(TILE, a) for a in axes_list]
    warm = [propagate.collapse_dims_to_one(TILE, a) for a in axes_list]
    again = [propagate.collapse_dims_to_one(TILE, a) for a in axes_list]
    assert warm == uncached and again == uncached
    assert len({u for u in uncached}) == 4  # (0, 1) == (1, 0, 1)
    assert uncached[2].out_dim_sizes() == {"dim0": 16, "dim1": 1}
    assert uncached[4] is not uncached[3] and warm[4] is warm[3]


def test_list_attributes_share_the_tuple_key():
    cache.clear()
    as_tuple = propagate.forward_layout(
        _op(OpKind.TRANS, (4, 8, 16), perm=(2, 0, 1)), CUBE
    )
    as_list = propagate.forward_layout(
        _op(OpKind.TRANS, (4, 8, 16), perm=[2, 0, 1]), CUBE
    )
    assert as_list is as_tuple


def test_identity_transfers_are_not_cached():
    for kind in (OpKind.ELEMENTWISE, OpKind.GATHER, OpKind.CONVERT_LAYOUT):
        assert propagate.forward_layout(_op(kind, (16, 32)), TILE) is TILE
    with pytest.raises(ValueError, match="no forward transfer"):
        propagate.forward_layout(_op(OpKind.DOT, (16, 32)), TILE)


@pytest.mark.parametrize("kernel", ["softmax", "flex_attention"])
def test_warm_recompile_misses_no_forward_transfer(kernel):
    model = KERNELS[kernel]
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    cache.clear()
    with mock.patch.object(
        propagate, "_forward_transfer", counted(propagate._forward_transfer)
    ), mock.patch.object(
        propagate, "_collapse_dims", counted(propagate._collapse_dims)
    ):
        cold = compile_case(model, model.cases[0], "RTX4090", "linear")
        assert calls  # the kernel has shape ops to transfer
        calls.clear()
        warm = compile_case(model, model.cases[0], "RTX4090", "linear")
        assert calls == []
    assert warm.summary() == cold.summary()
