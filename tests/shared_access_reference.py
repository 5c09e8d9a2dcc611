"""Per-element reference for the shared-memory access builder.

The planner builds access lists as whole-range F2 tables
(:func:`repro.codegen.conversion._shared_accesses`).  This module keeps
the original element-by-element enumeration, one ``flat_of`` and one
offset lookup per (warp, lane, register), as the differential-testing
oracle.  Only tests import it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.codegen.conversion import _vec_bit_positions
from repro.codegen.views import DistributedView
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout


def group_contiguous(
    pairs: List[Tuple[int, int]], max_vec: int
) -> List[Tuple[int, Tuple[int, ...]]]:
    """Group (offset, reg) pairs into aligned power-of-two vectors."""
    out: List[Tuple[int, Tuple[int, ...]]] = []
    i = 0
    while i < len(pairs):
        run = 1
        while (
            i + run < len(pairs)
            and pairs[i + run][0] == pairs[i][0] + run
        ):
            run += 1
        vec = max_vec
        base = pairs[i][0]
        while vec > 1 and (run < vec or base % vec != 0):
            vec >>= 1
        out.append((base, tuple(reg for _, reg in pairs[i: i + vec])))
        i += vec
    return out


def shared_accesses(
    layout: LinearLayout,
    offset_of_flat: Callable[[int], int],
    num_warps: int,
    warp_size: int,
    max_vec_elems: int,
    dedupe_broadcast: bool,
    vec_basis: Optional[Sequence[int]] = None,
    sort_by_offset: bool = False,
):
    """Per-CTA-thread access tuples, one element at a time."""
    view = DistributedView(layout)
    free = layout.free_variable_masks()
    free_reg = free.get(REGISTER, 0)
    free_lane = free.get(LANE, 0)
    free_warp = free.get(WARP, 0)
    regs = layout.in_dim_size(REGISTER)
    reg_order = list(range(regs))
    if vec_basis:
        positions = _vec_bit_positions(layout, vec_basis)
        if positions is not None:
            n_bits = layout.in_dim_size_log2(REGISTER)
            others = [i for i in range(n_bits) if i not in positions]
            bit_order = positions + others
            reg_order = []
            for counter in range(regs):
                r = 0
                for j, bit in enumerate(bit_order):
                    if (counter >> j) & 1:
                        r |= 1 << bit
                reg_order.append(r)
    accesses = []
    for w in range(num_warps):
        for lane in range(warp_size):
            if (
                lane >= layout.in_dim_size(LANE)
                or w >= layout.in_dim_size(WARP)
            ):
                accesses.append(())
                continue
            if dedupe_broadcast and (
                (lane & free_lane) or (w & free_warp)
            ):
                accesses.append(())
                continue
            pairs = []
            for r in reg_order:
                if dedupe_broadcast and (r & free_reg):
                    continue
                p = view.flat_of({REGISTER: r, LANE: lane, WARP: w})
                pairs.append((offset_of_flat(p), r))
            if sort_by_offset:
                pairs.sort()
            accesses.append(tuple(group_contiguous(pairs, max_vec_elems)))
    return tuple(accesses)


def swizzled_offset_of_flat(memory_layout: LinearLayout):
    """Flat logical position -> element offset of a staging layout."""
    store_map = memory_layout.invert()

    def offset_of_flat(p: int) -> int:
        coords = memory_layout.unflatten_out(p)
        return store_map.apply(coords)["offset"]

    return offset_of_flat


def padded_offset_of_flat(row_elems: int, pad_elems: int):
    """Flat position -> offset with ``pad_elems`` after every bank row."""

    def offset_of_flat(p: int) -> int:
        return p + (p // row_elems) * pad_elems

    return offset_of_flat
