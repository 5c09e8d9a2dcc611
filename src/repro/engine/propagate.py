"""Forward layout transfer functions for every IR op (Section 4.4).

For shape operations these are the closure constructions of Theorem
9.3: given the input layout, the returned output layout makes the op a
no-op on registers.  The legacy system lacks most of these transfers
(e.g. the transpose of an MMA layout is inexpressible), which the
engine models by forcing a conversion to blocked first.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Optional, Sequence, Tuple

from repro import cache as _cache
from repro.core.layout import LinearLayout
from repro.core.reshape import (
    broadcast_layout,
    expand_dims_layout,
    reshape_layout,
    transpose_layout,
)
from repro.core.reshape import join_layout as join_linear
from repro.core.reshape import split_layout as split_linear
from repro.engine.ir import Op, OpKind
from repro.layouts.blocked import BlockedLayout
from repro.layouts.sliced import SlicedLayout, slice_linear_layout


#: The op attributes each shape transfer reads (its memo key).
_TRANSFER_ATTRS = {
    OpKind.TRANS: ("perm",),
    OpKind.RESHAPE: ("shape",),
    OpKind.EXPAND_DIMS: ("axis",),
    OpKind.BROADCAST: ("shape",),
    OpKind.REDUCE: ("axis",),
    OpKind.JOIN: (),
    OpKind.SPLIT: (),
}


def _hashable(value: Any) -> Any:
    return tuple(value) if isinstance(value, list) else value


def forward_layout(op: Op, in_layout: LinearLayout) -> LinearLayout:
    """The output linear layout making ``op`` a register no-op.

    Shape transfers are memoized in the ``derivations`` cache, keyed
    on exactly what they read: the op kind, its attributes in
    :data:`_TRANSFER_ATTRS`, the input shape for ``BROADCAST``, and
    the input layout's canonical key.
    """
    kind = op.kind
    if kind in (OpKind.ELEMENTWISE, OpKind.GATHER, OpKind.CONVERT_LAYOUT):
        return in_layout
    if kind not in _TRANSFER_ATTRS:
        raise ValueError(f"no forward transfer for {kind}")
    attrs = tuple(_hashable(op.attrs[name]) for name in _TRANSFER_ATTRS[kind])
    in_shape = tuple(op.inputs[0].shape) if kind == OpKind.BROADCAST else None
    key = (
        "forward_layout", kind.value, attrs, in_shape, in_layout.canonical_key()
    )
    return _cache.cached(
        _cache.derivations,
        key,
        lambda: _forward_transfer(kind, attrs, in_shape, in_layout),
    )


def _forward_transfer(
    kind: OpKind,
    attrs: Tuple[Any, ...],
    in_shape: Optional[Tuple[int, ...]],
    in_layout: LinearLayout,
) -> LinearLayout:
    """The uncached transfer of :func:`forward_layout`."""
    if kind == OpKind.TRANS:
        return transpose_layout(in_layout, attrs[0])
    if kind == OpKind.RESHAPE:
        return reshape_layout(in_layout, attrs[0])
    if kind == OpKind.EXPAND_DIMS:
        return expand_dims_layout(in_layout, attrs[0])
    if kind == OpKind.BROADCAST:
        layout = in_layout
        for axis, (old, new) in enumerate(zip(in_shape, attrs[0])):
            if old == 1 and new > 1:
                layout = broadcast_layout(layout, axis, new)
        return layout
    if kind == OpKind.REDUCE:
        return slice_linear_layout(in_layout, attrs[0])
    if kind == OpKind.JOIN:
        return join_linear(in_layout)
    return split_linear(in_layout)


def collapse_dims_to_one(
    layout: LinearLayout, axes: Sequence[int]
) -> LinearLayout:
    """The layout of a broadcast *input* that makes broadcasting to
    ``layout`` free.

    Zeroing the basis coordinates of the broadcast axes gives the
    layout in which every hardware slot holds the element its
    broadcast copy will replicate — the backward transfer function of
    ``tt.broadcast`` (Theorem 9.3), which Triton's rematerialization
    uses to move conversions onto the smaller pre-broadcast tensor.
    Memoized in the ``derivations`` cache on the layout's canonical
    key and the set of axes.
    """
    axis_set = frozenset(axes)
    return _cache.cached(
        _cache.derivations,
        ("collapse_dims_to_one", layout.canonical_key(), axis_set),
        lambda: _collapse_dims(layout, axis_set),
    )


def _collapse_dims(layout: LinearLayout, axis_set: FrozenSet[int]) -> LinearLayout:
    names = list(layout.out_dims)
    bases = {}
    for d in layout.in_dims:
        bases[d] = [
            tuple(
                0 if i in axis_set else c for i, c in enumerate(img)
            )
            for img in layout.bases[d]
        ]
    outs = {
        name: (1 if i in axis_set else layout.out_dim_size(name))
        for i, name in enumerate(names)
    }
    return LinearLayout(bases, outs, require_surjective=False)


def forward_descriptor(op: Op, desc: object) -> Optional[object]:
    """Legacy descriptor propagation — None when legacy cannot express
    the result (forcing a conversion)."""
    kind = op.kind
    if kind == OpKind.ELEMENTWISE or kind == OpKind.GATHER:
        return desc
    if kind == OpKind.TRANS:
        if isinstance(desc, BlockedLayout):
            perm = op.attrs["perm"]
            inv = [0] * len(perm)
            for i, p in enumerate(perm):
                inv[p] = i
            return BlockedLayout(
                size_per_thread=tuple(
                    desc.size_per_thread[p] for p in perm
                ),
                threads_per_warp=tuple(
                    desc.threads_per_warp[p] for p in perm
                ),
                warps_per_cta=tuple(desc.warps_per_cta[p] for p in perm),
                order=tuple(inv[o] for o in desc.order),
            )
        return None  # legacy cannot transpose MMA & friends
    if kind == OpKind.REDUCE:
        if desc is None:
            return None
        axis = op.attrs["axis"]
        size = op.inputs[0].shape[axis]
        return SlicedLayout(parent=desc, dim=axis, parent_dim_size=size)
    # Shape ops (reshape, expand_dims, broadcast, join, split): legacy
    # re-derives a fresh blocked layout or cannot express the result.
    return None
