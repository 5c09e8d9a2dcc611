"""Shared-memory layouts: unswizzled and mma-swizzled.

The swizzled family implements Definition 4.11; Proposition 4.12 shows
these maps are linear and invertible, so the *memory layout* — the map
from offsets to logical coordinates the paper uses (Section 4.3) — is
the inverse of the store map built here.  The legacy padded staging
that Figure 2 beats is not linear; the conversion planner models it
(``swizzle_mode="padded"`` in :mod:`repro.codegen.conversion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.dims import OFFSET
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


def mma_swizzle_offset(
    i: int,
    j: int,
    vec: int,
    per_phase: int,
    max_phase: int,
    row_elems: int,
) -> int:
    """Scalar reference of Definition 4.11 (full element offset).

    The column part follows the paper's formula; the row index ``i``
    occupies the high bits (row-major storage), which is the implicit
    ``I_m`` block of the inverse-matrix characterization.
    """
    phase = (i // per_phase) % max_phase
    col = ((phase ^ (j // vec)) * vec) ^ (j % vec)
    return i * row_elems + col


@dataclass(frozen=True)
class SwizzledSharedLayout:
    """Parameters of an mma-swizzled shared-memory layout.

    ``vec``, ``per_phase``, ``max_phase`` follow Definition 4.11.
    ``order[0]`` is the contiguous dimension ((1, 0) means row-major).
    With ``vec = per_phase = max_phase = 1`` this is the unswizzled
    layout.
    """

    vec: int = 1
    per_phase: int = 1
    max_phase: int = 1
    order: Tuple[int, int] = (1, 0)

    def __post_init__(self):
        for v in (self.vec, self.per_phase, self.max_phase):
            log2_int(v)
        if sorted(self.order) != [0, 1]:
            raise DimensionError(f"order must permute (0, 1): {self.order}")

    def offset_of(self, coords: Sequence[int], shape: Sequence[int]) -> int:
        """Element offset of logical ``coords`` in a ``shape`` tile."""
        if len(coords) != 2 or len(shape) != 2:
            raise DimensionError("swizzled shared layouts are 2D")
        fast, slow = self.order[0], self.order[1]
        i, j = coords[slow], coords[fast]
        return mma_swizzle_offset(
            i, j, self.vec, self.per_phase, self.max_phase, shape[fast]
        )

    def store_map(self, shape: Sequence[int]) -> LinearLayout:
        """The linear map (dim0, dim1) -> offset.

        Built by evaluating the (linear) scalar formula on the unit
        coordinates — the constructive step of Proposition 4.12.
        """
        if len(shape) != 2:
            raise DimensionError("swizzled shared layouts are 2D")
        for s in shape:
            log2_int(s)
        total = shape[0] * shape[1]
        bases = {}
        for dim in (0, 1):
            images = []
            for bit in range(log2_int(shape[dim])):
                coords = [0, 0]
                coords[dim] = 1 << bit
                images.append((self.offset_of(coords, shape),))
            bases[f"dim{dim}"] = images
        layout = LinearLayout(bases, {OFFSET: total}, require_surjective=False)
        if not layout.is_invertible():
            raise DimensionError(
                f"swizzle parameters {self} are not invertible on {shape}"
            )
        return layout

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The memory layout: offset -> logical coords (Definition 4.14)."""
        return self.store_map(shape).invert()

    def __str__(self) -> str:
        return (
            f"swizzled_shared(vec={self.vec}, perPhase={self.per_phase}, "
            f"maxPhase={self.max_phase}, order={list(self.order)})"
        )


def shared_layout_for_mma(
    elem_bits: int,
    shape: Sequence[int],
    order: Tuple[int, int] = (1, 0),
) -> SwizzledSharedLayout:
    """Triton's heuristic swizzle parameters for MMA operand staging.

    ``vec`` covers a 128-bit vector, ``per_phase`` packs short rows
    into one 128-byte bank sweep, and ``max_phase`` spreads rows over
    the remaining bank groups.
    """
    inner = shape[order[0]]
    elem_bytes = max(1, elem_bits // 8)
    vec = max(1, min(inner, 128 // elem_bits))
    row_bytes = inner * elem_bytes
    per_phase = max(1, 128 // row_bytes)
    vec_bytes = vec * elem_bytes
    max_phase = max(1, min(shape[order[1]] // per_phase,
                           128 // (per_phase * vec_bytes)))
    return SwizzledSharedLayout(
        vec=vec, per_phase=per_phase, max_phase=max_phase, order=order
    )
