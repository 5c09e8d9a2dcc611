"""Element-at-a-time layout evaluation, the oracles of the table paths.

The compiler reads layouts only through whole tables
(``LinearLayout.flat_table``, ``repro.codegen.views.slot_table`` and
``owner_table``) and flat columns.  These functions evaluate one index
at a time from ``LinearLayout.apply`` or a view's columns, so the tests
can hold the tables to them.  Only tests import this module.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.errors import DimensionError, LayoutError
from repro.core.layout import LinearLayout


def _fastest_first(layout: LinearLayout, order: Optional[Sequence[str]]):
    """Out dims fastest-first; default row-major (last dim fastest)."""
    if order is None:
        return list(reversed(layout.out_dims))
    if sorted(order) != sorted(layout.out_dims):
        raise DimensionError(f"bad flatten order {list(order)}")
    return list(order)


def apply_flat(
    layout: LinearLayout,
    inputs: Mapping[str, int],
    order: Optional[Sequence[str]] = None,
) -> int:
    """``layout.apply(inputs)`` flattened, ``order`` listing out dims
    fastest-first (default row-major)."""
    coords = layout.apply(inputs)
    flat, shift = 0, 0
    for name in _fastest_first(layout, order):
        flat |= coords[name] << shift
        shift += layout.out_dim_size_log2(name)
    return flat


def unflatten_out(
    layout: LinearLayout, flat: int, order: Optional[Sequence[str]] = None
) -> Dict[str, int]:
    """Split a flattened output coordinate back into per-dim coords."""
    coords = {}
    for name in _fastest_first(layout, order):
        log = layout.out_dim_size_log2(name)
        coords[name] = flat & ((1 << log) - 1)
        flat >>= log
    return {name: coords[name] for name in layout.out_dims}


def transpose_ins(layout: LinearLayout, order: Sequence[str]) -> LinearLayout:
    """The same map with its input dims listed in ``order``."""
    if sorted(order) != sorted(layout.in_dims):
        raise DimensionError(f"bad in-dim order {order}")
    return LinearLayout.from_flat(
        {d: layout.basis_images_flat(d) for d in order},
        layout.out_dim_sizes(),
        require_surjective=False,
    )


def flat_of(view, indices: Mapping[str, int]) -> int:
    """Flattened logical position of one hardware index of a
    ``DistributedView``: the XOR of the columns its set bits select."""
    out = 0
    for d in view.dims:
        v = indices.get(d, 0)
        for bit, col in enumerate(view.columns[d]):
            if v >> bit & 1:
                out ^= col
    return out


def owner_of(view, flat: int) -> Dict[str, int]:
    """Canonical hardware owner of a flattened position: the index
    whose free (zero-column) bits are zero."""
    bit_owner = {
        col.bit_length() - 1: (d, i)
        for d in view.dims
        for i, col in enumerate(view.columns[d])
        if col
    }
    indices = {d: 0 for d in view.dims}
    while flat:
        low = flat & -flat
        pos = low.bit_length() - 1
        if pos not in bit_owner:
            raise LayoutError(
                f"flat position bit {pos} is outside the layout image"
            )
        d, i = bit_owner[pos]
        indices[d] |= 1 << i
        flat ^= low
    return indices
