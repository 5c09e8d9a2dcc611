"""The product constructions of the distributed layouts (Prop. 9.1).

``repro.layouts`` writes a blocked layout's columns in closed form and
fits MMA-family tiles to a tensor shape on the columns directly.  This
module keeps the constructions those replaced, as differential-testing
oracles: each layout is a product of 1-D identities (and instruction
tiles), fitted to the shape in two layout-level steps — shrink an
oversized tile by zeroing overflowing bits, then grow an undersized one
with fresh register bits — and checked surjective.  Only tests import
it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int
from repro.layouts.blocked import BlockedLayout
from repro.layouts.mfma import AmdMfmaLayout, mfma_output_tile
from repro.layouts.mma import (
    MmaOperandLayout,
    NvidiaMmaLayout,
    mma_operand_tile,
    mma_output_tile,
)
from repro.layouts.wgmma import WgmmaLayout, WgmmaOperandLayout


def _canonicalize_out_order(layout: LinearLayout, rank: int) -> LinearLayout:
    """Reorder the out dims of a freshly built product to dim0..dimN."""
    want = [f"dim{i}" for i in range(rank)]
    have = list(layout.out_dims)
    if sorted(have) != sorted(want):
        raise DimensionError(f"unexpected out dims {have}, want {want}")
    if have == want:
        return layout
    return layout.transpose_outs(want)


def ensure_layout_not_larger_than(
    layout: LinearLayout, shape: Sequence[int]
) -> LinearLayout:
    """Shrink each out dim to ``shape`` by zeroing overflowing bases."""
    names = list(layout.out_dims)
    if len(names) != len(shape):
        raise DimensionError(
            f"rank mismatch: layout {names} vs shape {list(shape)}"
        )
    masks = []
    shrink = False
    for name, size in zip(names, shape):
        log2_int(size)
        if layout.out_dim_size(name) < size:
            raise DimensionError(
                f"layout dim {name!r} smaller than target {size}"
            )
        if layout.out_dim_size(name) > size:
            shrink = True
        masks.append(size - 1)
    if not shrink:
        return layout
    bases = {
        d: [tuple(c & m for c, m in zip(img, masks)) for img in images]
        for d, images in layout.bases.items()
    }
    return LinearLayout(
        bases, dict(zip(names, shape)), require_surjective=False
    )


def ensure_layout_not_smaller_than(
    layout: LinearLayout,
    shape: Sequence[int],
    order: Sequence[int],
    in_dim: str = REGISTER,
) -> LinearLayout:
    """Grow each out dim to ``shape`` with fresh ``in_dim`` bits."""
    names = list(layout.out_dims)
    if len(names) != len(shape):
        raise DimensionError(
            f"rank mismatch: layout {names} vs shape {list(shape)}"
        )
    bases = layout.bases
    outs = dict(layout.out_dim_sizes())
    extra: List[tuple] = []
    for dim_idx in order:
        name = names[dim_idx]
        target = shape[dim_idx]
        log2_int(target)
        current = outs[name]
        if current > target:
            raise DimensionError(
                f"layout dim {name!r} larger than target {target}"
            )
        while current < target:
            img = [0] * len(names)
            img[dim_idx] = current
            extra.append(tuple(img))
            current <<= 1
        outs[name] = target
    if extra:
        bases[in_dim] = bases.get(in_dim, []) + extra
    return LinearLayout(bases, outs, require_surjective=False)


def tile_to_shape(
    tile: LinearLayout,
    shape: Sequence[int],
    order: Sequence[int],
    in_dim: str = REGISTER,
) -> LinearLayout:
    """Fit a tile to a tensor shape: shrink, grow, check surjective."""
    rank = len(shape)
    layout = _canonicalize_out_order(tile, rank)
    clipped = [
        min(s, layout.out_dim_size(f"dim{i}")) for i, s in enumerate(shape)
    ]
    layout = ensure_layout_not_larger_than(layout, clipped)
    layout = ensure_layout_not_smaller_than(layout, shape, order, in_dim)
    return LinearLayout(
        layout.bases, layout.out_dim_sizes(), require_surjective=True
    )


def blocked_to_linear(
    desc: BlockedLayout, shape: Sequence[int]
) -> LinearLayout:
    """id_R^o x id_T^o x id_W^o following the order, fitted to shape."""
    per_cta_shape = (
        desc.cta.split_shape(shape) if desc.cta is not None else list(shape)
    )
    tile = LinearLayout.empty()
    for counts, in_dim in (
        (desc.size_per_thread, REGISTER),
        (desc.threads_per_warp, LANE),
        (desc.warps_per_cta, WARP),
    ):
        for dim in desc.order:
            tile = tile * LinearLayout.identity1d(
                counts[dim], in_dim, f"dim{dim}"
            )
    per_cta = tile_to_shape(tile, per_cta_shape, desc.order)
    if desc.cta is None or desc.cta.is_trivial():
        return per_cta
    return desc.cta.lift(per_cta, shape)


def _dead_warps(count: int, out_dim: str) -> LinearLayout:
    """``count`` warps broadcasting along ``out_dim`` (zero columns)."""
    return LinearLayout(
        {WARP: [(0,)] * log2_int(count)},
        {out_dim: 1},
        require_surjective=False,
    )


def descriptor_to_linear(desc, shape: Sequence[int]) -> LinearLayout:
    """The product construction of any blocked or MMA-family layout."""
    if isinstance(desc, BlockedLayout):
        return blocked_to_linear(desc, shape)
    if isinstance(desc, NvidiaMmaLayout):
        wm, wn = desc.warps_per_cta
        tile = mma_output_tile() * (
            LinearLayout.identity1d(wm, WARP, "dim0")
            * LinearLayout.identity1d(wn, WARP, "dim1")
        )
        return tile_to_shape(tile, shape, order=(1, 0))
    if isinstance(desc, MmaOperandLayout):
        wm, wn = desc.parent.warps_per_cta
        if desc.op_idx == 0:
            warps = LinearLayout.identity1d(wm, WARP, "dim0") * (
                _dead_warps(wn, "dim1")
            )
        else:
            warps = _dead_warps(wm, "dim0") * (
                LinearLayout.identity1d(wn, WARP, "dim1")
            )
        tile = mma_operand_tile(desc.op_idx, desc.kwidth) * warps
        order = (1, 0) if desc.op_idx == 0 else (0, 1)
        return tile_to_shape(tile, shape, order=order)
    if isinstance(desc, WgmmaLayout):
        tile = mma_output_tile()
        for _ in range(3, log2_int(desc.instr_n)):
            tile = tile * LinearLayout.identity1d(2, REGISTER, "dim1")
        for count, out_dim in (
            (4, "dim0"),
            (desc.warps_per_cta[0] // 4, "dim0"),
            (desc.warps_per_cta[1], "dim1"),
        ):
            tile = tile * LinearLayout.identity1d(count, WARP, out_dim)
        return tile_to_shape(tile, shape, order=(1, 0))
    if isinstance(desc, WgmmaOperandLayout):
        tile = mma_operand_tile(0, desc.kwidth)
        tile = tile * LinearLayout.identity1d(4, WARP, "dim0")
        tile = tile * LinearLayout.identity1d(
            desc.parent.warps_per_cta[0] // 4, WARP, "dim0"
        )
        wn = desc.parent.warps_per_cta[1]
        if wn > 1:
            tile = tile * _dead_warps(wn, "dim1")
        return tile_to_shape(tile, shape, order=(1, 0))
    if isinstance(desc, AmdMfmaLayout):
        wm, wn = desc.warps_per_cta
        tile = mfma_output_tile() * LinearLayout.identity1d(wm, WARP, "dim0")
        tile = tile * LinearLayout.identity1d(wn, WARP, "dim1")
        return tile_to_shape(tile, shape, order=(1, 0))
    raise TypeError(f"no product construction for {desc!r}")
