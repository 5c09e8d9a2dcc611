"""Shared machinery for layout constructors.

:func:`tile_to_shape` writes a distributed layout's columns directly
(Appendix 9.1): a tile, hardware bits stacked on it one output bit at
a time, and the legacy tiling semantics (Section 5.1, Broadcasting).
When the tile is smaller than the tensor it is *replicated* to cover
it (extra register columns enumerate the tile grid), and when it is
larger the tensor is replicated to cover the tile (the excess bits
become zero columns, i.e. broadcast).  The construction it replaces
(products of identities, then shrink and grow steps, each a layout)
is kept as a test oracle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.dims import REGISTER
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


def tile_to_shape(
    tile: LinearLayout,
    shape: Sequence[int],
    order: Sequence[int],
    stack: Mapping[str, Sequence[Optional[int]]],
) -> LinearLayout:
    """Fit a tile, with hardware bits stacked on it, onto a tensor shape.

    ``stack[in_dim]`` lists the new bits of ``in_dim`` in order: each
    takes the next free output bit of the dim it names, above the tile
    and the bits stacked before it (the product of the tile with 1-D
    identities), or is a zero column (broadcast) where it names
    ``None``.  Then every bit beyond the tensor's extent in its dim
    becomes a zero column (the tensor is replicated under an oversized
    tile), and the dims left short get fresh high register columns,
    enumerating tiles fastest-first per ``order``.  The result has out
    dims ``dim0..dimN`` and is surjective (checked unless the tile is).
    """
    rank = len(shape)
    names = [f"dim{i}" for i in range(rank)]
    sizes = tile.out_dim_sizes()
    if sorted(sizes) != names:
        raise DimensionError(
            f"unexpected out dims {list(sizes)}, want {names}"
        )
    logs = [log2_int(s) for s in shape]
    out_shift = [sum(logs[i + 1:]) for i in range(rank)]
    # Each dim's tile field moves to its place in the result, keeping
    # only the bits inside the tensor.
    filled = [log2_int(sizes[name]) for name in names]
    moves = []
    shift = 0
    for name in reversed(list(sizes)):
        i = names.index(name)
        kept = (1 << min(filled[i], logs[i])) - 1
        moves.append((shift, kept, out_shift[i]))
        shift += filled[i]
    columns: Dict[str, List[int]] = {
        d: [
            sum(((v >> src) & mask) << dst for src, mask, dst in moves)
            for v in tile.basis_images_flat(d)
        ]
        for d in tile.in_dims
    }

    def unit(dim: Optional[int]) -> int:
        """The column of the next output bit of ``dim``, 0 past it."""
        if dim is None:
            return 0
        bit = filled[dim]
        filled[dim] += 1
        return 1 << (out_shift[dim] + bit) if bit < logs[dim] else 0

    for in_dim, dims in stack.items():
        columns[in_dim] = columns.get(in_dim, []) + [unit(d) for d in dims]
    extra = [unit(i) for i in order for _ in range(filled[i], logs[i])]
    if extra:
        columns[REGISTER] = columns.get(REGISTER, []) + extra
    # Every output bit above the tile has its unit column, and a
    # surjective tile stays so clipped: only another tile needs a check.
    return LinearLayout.from_flat(
        columns,
        dict(zip(names, shape)),
        require_surjective=not tile.is_surjective(),
    )
