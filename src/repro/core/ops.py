"""Operator algebra on layouts beyond the methods of the class itself.

The centerpiece is *left division* (Definition 4.4): a layout ``L`` is
divisible on the left by a tile ``T`` when ``L`` has the block
structure ``[[T, 0], [0, Q]]`` label-wise, in which case ``L / T = Q``.
Theorem 5.1 uses this to decide whether a SIMD instruction with tile
``T`` can lower ``L``.
"""

from __future__ import annotations

from typing import Optional

from repro import cache as _cache
from repro.core.errors import DimensionError, NotDivisibleError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


def divide_left(
    layout: LinearLayout, tile: LinearLayout
) -> Optional[LinearLayout]:
    """Label-wise left division ``layout / tile`` (Definition 4.4).

    Returns the quotient layout ``Q`` such that ``tile * Q == layout``
    (with ``*`` the product of Definition 4.3), or ``None`` when the
    required block structure is absent.

    Every input and output dim of the tile must exist in the layout
    with at least the tile's size.  In the quotient, each shared dim
    keeps the left-over high bits.

    Results (including failures) are memoized on the canonical layout
    keys: Theorem 5.1's divisibility test runs for every candidate
    staging layout of every conversion, over a tiny set of tiles.
    """
    return _cache.cached(
        _cache.derivations,
        ("divide_left", layout.canonical_key(), tile.canonical_key()),
        lambda: _divide_left(layout, tile),
    )


def _divide_left(
    layout: LinearLayout, tile: LinearLayout
) -> Optional[LinearLayout]:
    for d in tile.in_dims:
        if tile.in_dim_size(d) > layout.in_dim_size(d):
            return None
    for d in tile.out_dims:
        if not layout.has_out_dim(d):
            return None
        if tile.out_dim_size(d) > layout.out_dim_size(d):
            return None

    tile_out_log = {
        d: (tile.out_dim_size_log2(d) if tile.has_out_dim(d) else 0)
        for d in layout.out_dims
    }
    out_names = list(layout.out_dims)

    quotient_bases = {}
    for in_dim in layout.in_dims:
        k = (
            tile.in_dim_size_log2(in_dim)
            if tile.has_in_dim(in_dim)
            else 0
        )
        n = layout.in_dim_size_log2(in_dim)
        # Low bits must reproduce the tile exactly, confined to the
        # tile's output block.
        for bit in range(k):
            img = dict(zip(out_names, layout.basis_image(in_dim, bit)))
            tile_img = dict(
                zip(tile.out_dims, tile.basis_image(in_dim, bit))
            )
            for name in out_names:
                want = tile_img.get(name, 0)
                if img[name] != want:
                    return None
        # High bits must avoid the tile's output block entirely.
        quot_images = []
        for bit in range(k, n):
            img = dict(zip(out_names, layout.basis_image(in_dim, bit)))
            coords = []
            for name in out_names:
                low = tile_out_log[name]
                if img[name] & ((1 << low) - 1):
                    return None
                coords.append(img[name] >> low)
            quot_images.append(tuple(coords))
        quotient_bases[in_dim] = quot_images

    quotient_outs = {
        name: layout.out_dim_size(name) >> tile_out_log[name]
        for name in out_names
    }
    # Drop dims fully consumed by the tile (size 1 keeps flattening sane
    # but Definition 4.4 keeps them; we keep them as size-1 dims).
    for name, size in quotient_outs.items():
        if size < 1:  # pragma: no cover - guarded by checks above
            raise DimensionError(f"tile exceeds layout in dim {name!r}")
    return LinearLayout(
        quotient_bases, quotient_outs, require_surjective=False
    )


def divide_left_or_raise(
    layout: LinearLayout, tile: LinearLayout
) -> LinearLayout:
    """Left division that raises :class:`NotDivisibleError` on failure."""
    quotient = divide_left(layout, tile)
    if quotient is None:
        raise NotDivisibleError(
            f"layout is not left-divisible by the tile:\n"
            f"  layout: {layout!r}\n  tile:   {tile!r}"
        )
    return quotient


def is_divisible_by(layout: LinearLayout, tile: LinearLayout) -> bool:
    """Theorem 5.1's predicate: can an instruction with tile T lower L?"""
    return divide_left(layout, tile) is not None


def num_identity_low_bits(
    layout: LinearLayout, in_dim: str, out_order=None
) -> int:
    """Count leading input bits of ``in_dim`` mapping identically.

    Returns the largest ``v`` such that basis bit ``i`` of ``in_dim``
    maps to flattened output ``2**i`` for all ``i < v`` — the
    "largest u with L^-1_Reg(i) = i for i <= u" computation of
    Section 5.1, phrased on the forward map.
    """
    count = 0
    for i, img in enumerate(layout.basis_images_flat(in_dim, out_order)):
        if img != (1 << i):
            break
        count += 1
    return count


def product_pow2(layout: LinearLayout, in_dim: str, times_log2: int) -> LinearLayout:
    """Replicate a layout ``2**times_log2`` ways along an input dim.

    Adds ``times_log2`` zero bases to ``in_dim`` — the broadcast
    construction of Section 5.1 ("adding a zero column in A_reg means
    registers 4-7 map to the same tensor elements as registers 0-3").
    """
    new_size = layout.in_dim_size(in_dim) << times_log2
    log2_int(new_size)
    return layout.resize_in_dim(in_dim, new_size)
