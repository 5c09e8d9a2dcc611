"""SIMD hardware-primitive matching (Section 5.3, Theorem 5.1).

To use ``ldmatrix``/``stmatrix``/vectorized shared instructions, the
register<->offset map ``L = M^{-1} o D`` (memory layout inverse
composed with the distributed layout) must be left-divisible by the
instruction's tile.  When it is not, *generalized vectorization*
permutes the registers (``L' = P_Reg L``) to expose the structure —
division and permutation are computed together, column by column.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro import cache as _cache
from repro.core.dims import REGISTER
from repro.core.layout import LinearLayout
from repro.core.ops import divide_left


def register_offset_map(
    dist_layout: LinearLayout, memory_layout: LinearLayout
) -> LinearLayout:
    """``M^{-1} o D``: hardware indices -> shared offsets.

    ``memory_layout`` maps offsets to logical coords (Definition 4.14)
    and ``dist_layout`` maps registers/lanes/warps to the same coords,
    so the composition routes each register slot to its offset.
    """
    return memory_layout.invert().compose(dist_layout)


def match_instruction_tile(
    reg_off: LinearLayout, tile: LinearLayout
) -> bool:
    """Theorem 5.1: the instruction applies iff ``L / T`` exists."""
    return divide_left(reg_off, tile) is not None


def permute_registers_for_tile(
    reg_off: LinearLayout, tile: LinearLayout
) -> Optional[Tuple[LinearLayout, Tuple[int, ...]]]:
    """Generalized vectorization (Section 5.3).

    Search for a register permutation ``P`` such that the permuted map
    is left-divisible by ``tile``; returns the permuted map and the
    permutation's ``dst_to_src`` register table, or ``None``.  The
    search is greedy: for each low register bit the tile requires,
    find a register basis with exactly the required image; the
    remaining registers keep their relative order.
    """
    if match_instruction_tile(reg_off, tile):
        return reg_off, tuple(range(reg_off.in_dim_size(REGISTER)))
    if not tile.has_in_dim(REGISTER):
        return None
    k = tile.in_dim_size_log2(REGISTER)
    n = reg_off.in_dim_size_log2(REGISTER)
    if k > n:
        return None
    tile_images = [
        tile.basis_image_flat(REGISTER, i) for i in range(k)
    ]
    have = reg_off.basis_images_flat(REGISTER)
    chosen: List[int] = []
    for want in tile_images:
        match = next(
            (
                i
                for i, img in enumerate(have)
                if img == want and i not in chosen
            ),
            None,
        )
        if match is None:
            return None
        chosen.append(match)
    rest = [i for i in range(n) if i not in chosen]
    new_order = chosen + rest  # new bit j <- old bit new_order[j]
    old_bases = reg_off.bases[REGISTER]
    new_bases = [old_bases[i] for i in new_order]
    bases = reg_off.bases
    bases[REGISTER] = new_bases
    permuted = LinearLayout(
        bases, reg_off.out_dim_sizes(), require_surjective=False
    )
    if divide_left(permuted, tile) is None:
        return None
    # Bit reordering corresponds to the register permutation
    # new_reg = permute(old_reg) where each old bit i moves to the new
    # position holding it.
    size = 1 << n
    dst_to_src = []
    for new_reg in range(size):
        old_reg = 0
        for new_bit in range(n):
            if (new_reg >> new_bit) & 1:
                old_reg |= 1 << new_order[new_bit]
        dst_to_src.append(old_reg)
    return permuted, tuple(dst_to_src)


def ldmatrix_applicable(
    dist_layout: LinearLayout,
    memory_layout: LinearLayout,
    tile: LinearLayout,
) -> bool:
    """Whether ldmatrix/stmatrix can service this register<->memory map,
    directly or after a register permutation.

    Memoized on the canonical keys of all three layouts: the planner
    probes this for every candidate staging layout of every
    conversion, and the composition + division behind it are the
    expensive F2 steps.
    """

    def compute() -> bool:
        reg_off = register_offset_map(dist_layout, memory_layout)
        if match_instruction_tile(reg_off, tile):
            return True
        return permute_registers_for_tile(reg_off, tile) is not None

    return _cache.cached(
        _cache.derivations,
        (
            "ldmatrix_applicable",
            dist_layout.canonical_key(),
            memory_layout.canonical_key(),
            tile.canonical_key(),
        ),
        compute,
    )
