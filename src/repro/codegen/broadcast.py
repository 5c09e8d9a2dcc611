"""Broadcast/duplicate detection for reductions (Section 5.1).

Once a layout is linear, "identifying threads and warps with
duplicated data reduces to detecting zero columns in the layout
matrix".  These helpers drive the Table 4 benchmark: the number of
shared-memory stores a cross-warp reduction needs with and without
duplicate elimination.
"""

from __future__ import annotations

from typing import Dict

from repro.core.dims import REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.f2.bitvec import popcount


def duplicate_groups(layout: LinearLayout) -> Dict[str, int]:
    """Per input dim, the replication factor due to free bits.

    A replication factor of ``2**k`` in ``lane`` means each logical
    element is held by ``2**k`` lanes.
    """
    masks = layout.free_variable_masks()
    return {d: 1 << popcount(m) for d, m in masks.items()}


def _unique_registers(layout: LinearLayout) -> int:
    """Registers per thread after removing duplicate-data registers."""
    free_reg = layout.free_variable_masks().get(REGISTER, 0)
    return layout.in_dim_size(REGISTER) >> popcount(free_reg)


def _combining_warps(layout: LinearLayout) -> int:
    """Warps holding duplicates of each partial (the cross-warp combine
    fan-in): the free warp bits of the post-reduction layout."""
    free_warp = layout.free_variable_masks().get(WARP, 0)
    return 1 << popcount(free_warp)


def reduction_store_count(
    partial_layout: LinearLayout, dedupe: bool
) -> int:
    """Static per-thread shared stores when a reduction spills partials.

    Cross-warp reductions stage per-warp partial results in shared
    memory.  Legacy Triton (``dedupe=False``) emits a store for every
    register slot; the linear engine skips registers identified as
    duplicates by the zero columns of the layout matrix (Section 5.1)
    — the source of Table 4's instruction reduction.
    """
    if not dedupe:
        return partial_layout.in_dim_size(REGISTER)
    return _unique_registers(partial_layout)


def reduction_load_count(
    partial_layout: LinearLayout, dedupe: bool
) -> int:
    """Static per-thread shared loads for the cross-warp combine.

    Each surviving partial is re-read once per combining warp; without
    deduplication every duplicate register slot re-reads its own
    copies too.
    """
    fan_in = _combining_warps(partial_layout)
    if not dedupe:
        return partial_layout.in_dim_size(REGISTER) * fan_in
    return _unique_registers(partial_layout) * fan_in
