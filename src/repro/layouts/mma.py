"""NVIDIA Ampere ``mma`` layouts (Proposition 4.7).

The ``mma.sync.m16n8kK`` family distributes a 16x8 accumulator tile
over the 32 lanes of a warp: lanes are arranged 8x4 (groups of four
lanes own a row pair), each lane holds two adjacent columns per row
group.  Operand fragments follow the PTX ISA: a lane holds ``kwidth =
32 / elem_bits`` consecutive elements along K per group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int
from repro.layouts.common import tile_to_shape


def mma_output_tile() -> LinearLayout:
    """The 16x8 accumulator tile of ``mma.m16n8``.

    Per PTX: ``c0/c1`` sit at ``(group, 2*tid4 + {0,1})`` and ``c2/c3``
    at ``(group + 8, ...)`` where ``group = lane >> 2`` and ``tid4 =
    lane & 3``.
    """
    return LinearLayout(
        {
            REGISTER: [(0, 1), (8, 0)],
            LANE: [(0, 2), (0, 4), (1, 0), (2, 0), (4, 0)],
        },
        {"dim0": 16, "dim1": 8},
        require_surjective=True,
    )


def mma_operand_tile(op_idx: int, kwidth: int) -> LinearLayout:
    """The register fragment tile of an ``mma`` operand.

    ``op_idx`` 0 is A (shape M x K = 16 x 8*kwidth), 1 is B (shape
    K x N = 8*kwidth x 8).  ``kwidth = 32 / elem_bits`` is the number
    of consecutive K elements one lane holds per fragment group.
    """
    if op_idx not in (0, 1):
        raise DimensionError(f"op_idx must be 0 or 1, got {op_idx}")
    kw = log2_int(kwidth)
    if op_idx == 0:
        # A: dim0 = M (16), dim1 = K (8 * kwidth).
        reg: List[Tuple[int, int]] = [(0, 1 << i) for i in range(kw)]
        lane = [
            (0, kwidth << 0),  # tid4 bit 0 -> K
            (0, kwidth << 1),  # tid4 bit 1 -> K
            (1, 0),
            (2, 0),
            (4, 0),
        ]
        reg.append((8, 0))  # second row group (M bit 3)
        reg.append((0, kwidth << 2))  # second K group
        outs = {"dim0": 16, "dim1": 8 * kwidth}
    else:
        # B: dim0 = K (8 * kwidth), dim1 = N (8).
        reg = [(1 << i, 0) for i in range(kw)]
        lane = [
            (kwidth << 0, 0),
            (kwidth << 1, 0),
            (0, 1),
            (0, 2),
            (0, 4),
        ]
        reg.append((kwidth << 2, 0))  # second K group
        outs = {"dim0": 8 * kwidth, "dim1": 8}
    return LinearLayout(
        {REGISTER: reg, LANE: lane}, outs, require_surjective=True
    )


@dataclass(frozen=True)
class NvidiaMmaLayout:
    """The distributed layout of an ``mma`` result (version 2, Ampere).

    ``warps_per_cta`` arranges warps over (M, N); the 16x8 instruction
    tile is replicated in registers to cover the rest of the tensor.
    """

    warps_per_cta: Tuple[int, int]
    instr_shape: Tuple[int, int] = (16, 8)

    def __post_init__(self):
        for w in self.warps_per_cta:
            log2_int(w)
        if self.instr_shape != (16, 8):
            raise DimensionError(
                f"mma v2 instruction tile is 16x8, got {self.instr_shape}"
            )

    @property
    def rank(self) -> int:
        """mma layouts are two-dimensional."""
        return 2

    def num_warps(self) -> int:
        """Total warps per CTA."""
        return self.warps_per_cta[0] * self.warps_per_cta[1]

    def warp_bits(self) -> List[Optional[int]]:
        """The dim each warp bit indexes: M first, then N."""
        wm, wn = self.warps_per_cta
        return [0] * log2_int(wm) + [1] * log2_int(wn)

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The full accumulator layout for a tensor of ``shape``."""
        if len(shape) != 2:
            raise DimensionError("mma layouts are two-dimensional")
        # Register replication covers the rest, N fastest: accumulators
        # for adjacent N tiles live in consecutive registers.
        return tile_to_shape(
            mma_output_tile(), shape, order=(1, 0),
            stack={WARP: self.warp_bits()},
        )

    def __str__(self) -> str:
        return f"mma(version=2, warpsPerCTA={list(self.warps_per_cta)})"


@dataclass(frozen=True)
class MmaOperandLayout:
    """The distributed layout of an ``mma`` input (MMA Input family).

    The warp grid is inherited from the parent accumulator layout, but
    warps along the contracted dimension must *broadcast*: every warp
    in the same row (for A) holds the full K extent, so the warp bits
    that index N in the parent become zero columns here.
    """

    parent: NvidiaMmaLayout
    op_idx: int
    kwidth: int

    def __post_init__(self):
        if self.op_idx not in (0, 1):
            raise DimensionError(f"op_idx must be 0 or 1, got {self.op_idx}")
        log2_int(self.kwidth)

    @property
    def rank(self) -> int:
        """Operand layouts are two-dimensional."""
        return 2

    def warp_bits(self) -> List[Optional[int]]:
        """The parent's warp grid, with the warps along the contracted
        dim broadcasting (``None``)."""
        wm, wn = self.parent.warps_per_cta
        if self.op_idx == 0:
            # A (M x K): M warps index dim0, N warps broadcast.
            return [0] * log2_int(wm) + [None] * log2_int(wn)
        # B (K x N): M warps broadcast, N warps index dim1.
        return [None] * log2_int(wm) + [1] * log2_int(wn)

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The full operand layout for a tensor of ``shape``."""
        if len(shape) != 2:
            raise DimensionError("mma operand layouts are two-dimensional")
        # K is the fastest replication direction: consecutive registers
        # walk the contraction so the dot loop is register-resident.
        order = (1, 0) if self.op_idx == 0 else (0, 1)
        return tile_to_shape(
            mma_operand_tile(self.op_idx, self.kwidth),
            shape,
            order=order,
            stack={WARP: self.warp_bits()},
        )

    def __str__(self) -> str:
        return (
            f"mma_operand(opIdx={self.op_idx}, kWidth={self.kwidth}, "
            f"parent={self.parent})"
        )
