"""Fast index views of distributed layouts.

Definition 4.10 guarantees that a distributed layout's matrix is a
permutation matrix interleaved with zero columns, so mapping between
hardware indices and flattened logical positions is pure bit routing.
:class:`DistributedView` precomputes that routing in both directions
for one index at a time.  :func:`slot_table` is the forward direction
over every hardware index at once, the one table the planner, the
program interpreter and the register fill/check read;
:func:`owner_table` is its dual, the ``A^{-1}(p)_Reg`` /
``A^{-1}(p)_Thr`` lookups of the Section 5.4 shuffle planner over
every logical position at once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.core.layout import LinearLayout
from repro.core.properties import is_distributed_layout
from repro.f2.bitvec import span_table


def _require_distributed(layout: LinearLayout) -> None:
    if not is_distributed_layout(layout):
        raise LayoutError(
            "DistributedView requires a distributed layout "
            "(Definition 4.10)"
        )


def slot_table(layout: LinearLayout) -> np.ndarray:
    """Flat logical position of every (warp, lane, reg) slot.

    ``table[w, l, r]`` equals ``DistributedView(layout).flat_of(...)``
    of that hardware index, as int64 of shape ``(warps, lanes, regs)``:
    :meth:`LinearLayout.flat_table` with registers fastest.  Raises
    :class:`LayoutError` for a non-distributed layout, as the view does.

    Not memoized: holding one table per layout for the life of the
    process costs more memory than the rebuilds cost time.  Simulating
    the 297 fig9 conversion plans with a per-layout memo (2-CPU VM,
    NumPy 2.4) measured peak RSS ~107 -> ~122 MB (+14 %) for ~6 % more
    plans per second.
    """
    _require_distributed(layout)
    return layout.flat_table((REGISTER, LANE, WARP)).reshape(
        layout.in_dim_size(WARP),
        layout.in_dim_size(LANE),
        layout.in_dim_size(REGISTER),
    )


def owner_table(layout: LinearLayout) -> np.ndarray:
    """Canonical (reg, lane, warp) owner of every flat logical position.

    ``table[p]`` equals ``DistributedView(layout).owner_of(p)`` as the
    int64 row ``(reg, lane, warp)``, for every ``p`` below
    ``2 ** total_out_bits``; the table has shape ``(positions, 3)``.
    It is the dual of :func:`slot_table`: Definition 4.10 routes each
    flat bit to one hardware bit, so the owner map is linear over F_2
    and is the :func:`~repro.f2.bitvec.span_table` of those unit
    images, with broadcast (zero-column) bits left at 0.  Raises
    :class:`LayoutError` for a non-distributed layout, as the view
    does.
    """
    _require_distributed(layout)
    images = np.zeros((layout.total_out_bits(), 3), dtype=np.int64)
    for k, dim in enumerate((REGISTER, LANE, WARP)):
        for i, col in enumerate(layout.basis_images_flat(dim)):
            if col:
                images[col.bit_length() - 1, k] = 1 << i
    return span_table(images)


class DistributedView:
    """Bit-level routing for a distributed layout.

    ``flat_of(reg, lane, warp)`` gives the flattened (row-major)
    logical position; ``owner_of(p)`` gives the canonical owner — the
    hardware index whose *free* (broadcast) bits are zero.
    """

    def __init__(self, layout: LinearLayout):
        _require_distributed(layout)
        self.layout = layout
        self.dims = [d for d in (REGISTER, LANE, WARP) if layout.has_in_dim(d)]
        # columns[dim][bit] = flat image (a power of two or zero).
        self.columns: Dict[str, List[int]] = {
            d: layout.basis_images_flat(d) for d in self.dims
        }
        # Reverse routing: flat bit position -> (dim, bit index).
        self.bit_owner: Dict[int, Tuple[str, int]] = {}
        for d in self.dims:
            for i, col in enumerate(self.columns[d]):
                if col:
                    self.bit_owner[col.bit_length() - 1] = (d, i)

    @property
    def total_bits(self) -> int:
        """Bits of the flattened logical tensor."""
        return self.layout.total_out_bits()

    def flat_of(self, indices: Dict[str, int]) -> int:
        """Flattened logical position of a hardware index."""
        out = 0
        for d in self.dims:
            v = indices.get(d, 0)
            cols = self.columns[d]
            bit = 0
            while v:
                if v & 1:
                    out ^= cols[bit]
                v >>= 1
                bit += 1
        return out

    def owner_of(self, flat: int) -> Dict[str, int]:
        """Canonical hardware owner of a flattened position."""
        indices = {d: 0 for d in self.dims}
        while flat:
            low = flat & -flat
            pos = low.bit_length() - 1
            if pos not in self.bit_owner:
                raise LayoutError(
                    f"flat position bit {pos} is outside the layout image"
                )
            d, i = self.bit_owner[pos]
            indices[d] |= 1 << i
            flat ^= low
        return indices

    def images(self, dim: str, include_zeros: bool = True) -> List[int]:
        """The paper's ``L_Reg`` / ``L_Thr`` / ``L_Wrp`` column sets."""
        cols = self.columns.get(dim, [])
        if include_zeros:
            return list(cols)
        return [c for c in cols if c]

    def has_broadcasting(self, dim: Optional[str] = None) -> bool:
        """True iff any (or the given) input dim has a zero column."""
        dims = [dim] if dim else self.dims
        return any(0 in self.columns.get(d, []) for d in dims)

    def replicas_of(self, indices: Dict[str, int]) -> List[Dict[str, int]]:
        """All hardware indices holding the same element.

        Enumerates the free (zero-column) bits; used when a conversion
        must fan a value out to every broadcast copy.
        """
        free_bits: List[Tuple[str, int]] = []
        for d in self.dims:
            for i, col in enumerate(self.columns[d]):
                if col == 0:
                    free_bits.append((d, i))
        base = {
            d: indices.get(d, 0)
            & ~sum(
                (1 << i)
                for dd, i in free_bits
                if dd == d
            )
            for d in self.dims
        }
        out = []
        for mask in range(1 << len(free_bits)):
            idx = dict(base)
            for k, (d, i) in enumerate(free_bits):
                if (mask >> k) & 1:
                    idx[d] |= 1 << i
            out.append(idx)
        return out
