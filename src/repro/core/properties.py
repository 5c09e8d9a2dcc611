"""Structural predicates and derived quantities of layouts.

Implements the characterizations of Definitions 4.10 (distributed
layouts) and 4.14 (memory layouts), and the layout utilities of
Section 5.1: contiguous-element counting for vectorization, and
duplicate detection for broadcasting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.dims import REGISTER
from repro.core.layout import LinearLayout
from repro.core.ops import num_identity_low_bits
from repro.f2.bitvec import popcount


def _flat_columns(
    layout: LinearLayout, order: Optional[Sequence[str]] = None
) -> List[int]:
    cols: List[int] = []
    for d in layout.in_dims:
        cols.extend(layout.basis_images_flat(d, order))
    return cols


def is_distributed_layout(layout: LinearLayout) -> bool:
    """Definition 4.10: surjective, every column has at most one set
    bit, and no two non-zero columns repeat.

    In other words, a permutation matrix possibly interleaved with zero
    columns.  A pure predicate of an immutable layout, so memoized on
    it.
    """
    return layout._memoized("distributed", lambda: _is_distributed(layout))


def _is_distributed(layout: LinearLayout) -> bool:
    if not layout.is_surjective():
        return False
    seen = set()
    for col in _flat_columns(layout):
        weight = popcount(col)
        if weight > 1:
            return False
        if weight == 1:
            if col in seen:
                return False
            seen.add(col)
    return True


def is_memory_layout(layout: LinearLayout) -> bool:
    """Definition 4.14: invertible with columns of 1 or 2 set bits."""
    if not layout.is_invertible():
        return False
    return all(popcount(col) in (1, 2) for col in _flat_columns(layout))


def num_contiguous_elements(
    layout: LinearLayout,
    in_dim: str = REGISTER,
    out_order: Optional[Sequence[str]] = None,
) -> int:
    """Contiguous logical elements held per thread (Section 5.1).

    The count is ``2**v`` where ``v`` is the number of leading
    ``in_dim`` bits mapping identically onto the flattened tensor.
    Unlike the legacy heuristic, this looks across dimension
    boundaries, which is exactly what fixes the ``[512, 2] x f8`` rows
    of Table 3.
    """
    return 1 << num_identity_low_bits(layout, in_dim, out_order)


def largest_vectorization(
    layout: LinearLayout,
    element_bits: int,
    max_vector_bits: int = 128,
    in_dim: str = REGISTER,
    out_order: Optional[Sequence[str]] = None,
) -> int:
    """Widest power-of-two vector (in bits) for a global access.

    Bounded by the contiguous-element count and the platform's widest
    vector transaction (128 bits on NVIDIA/AMD).
    """
    contiguous = num_contiguous_elements(layout, in_dim, out_order)
    vector_bits = contiguous * element_bits
    while vector_bits > max_vector_bits:
        vector_bits >>= 1
    # A single element wider than the cap still needs multiple loads;
    # floor at the element width.
    return max(vector_bits, min(element_bits, max_vector_bits))
