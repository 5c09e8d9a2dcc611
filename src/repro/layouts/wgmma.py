"""NVIDIA Hopper ``wgmma`` layouts (Proposition 4.7).

``wgmma.mma_async.m64nNk16`` is issued by a *warp group* of four
warps.  The accumulator tile spans M=64 rows — each warp of the group
owns a 16-row slab that internally follows the ``mma`` 16x8 pattern —
and up to N=256 columns covered by registers.  The B operand is read
directly from shared memory (it has no register layout), which is why
template_attention speeds up less on GH200 than on RTX4090
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.dims import WARP
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int
from repro.layouts.common import tile_to_shape
from repro.layouts.mma import mma_operand_tile, mma_output_tile


@dataclass(frozen=True)
class WgmmaLayout:
    """Distributed layout of a ``wgmma`` accumulator (version 3).

    ``warps_per_cta`` counts *all* warps; the first four along M form
    the warp group.  ``instr_n`` is the N extent of one instruction
    (8..256, power of two here).
    """

    warps_per_cta: Tuple[int, int]
    instr_n: int = 16

    def __post_init__(self):
        for w in self.warps_per_cta:
            log2_int(w)
        log2_int(self.instr_n)
        if self.warps_per_cta[0] % 4 != 0:
            raise DimensionError(
                "wgmma needs a multiple of 4 warps along M, got "
                f"{self.warps_per_cta}"
            )
        if not 8 <= self.instr_n <= 256:
            raise DimensionError(f"instr_n out of range: {self.instr_n}")

    @property
    def rank(self) -> int:
        """wgmma layouts are two-dimensional."""
        return 2

    def num_warps(self) -> int:
        """Total warps per CTA (the first four form the warp group)."""
        return self.warps_per_cta[0] * self.warps_per_cta[1]

    def instruction_tile(self) -> LinearLayout:
        """The m64 x instr_n tile owned by one warp group."""
        # The four warps of the group stack along M (bits 4, 5 of
        # dim0); registers walk N beyond the base 8 columns.
        return tile_to_shape(
            mma_output_tile(), (64, self.instr_n), order=(1, 0),
            stack={WARP: [0, 0]},
        )

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The full accumulator layout for a tensor of ``shape``."""
        if len(shape) != 2:
            raise DimensionError("wgmma layouts are two-dimensional")
        # Further warp groups stack along M, then warps tile N.
        wm, wn = self.warps_per_cta
        warps = [0] * log2_int(wm // 4) + [1] * log2_int(wn)
        return tile_to_shape(
            self.instruction_tile(), shape, order=(1, 0),
            stack={WARP: warps},
        )

    def __str__(self) -> str:
        return (
            f"wgmma(version=3, warpsPerCTA={list(self.warps_per_cta)}, "
            f"instrN={self.instr_n})"
        )


@dataclass(frozen=True)
class WgmmaOperandLayout:
    """Register layout of the A operand of ``wgmma`` (op_idx 0 only).

    B is consumed straight from shared memory by the instruction, so
    only A has a distributed register layout.  The per-warp fragment
    matches the ``mma`` A fragment; the warp group stacks along M.
    """

    parent: WgmmaLayout
    kwidth: int

    def __post_init__(self):
        log2_int(self.kwidth)

    @property
    def rank(self) -> int:
        """Operand layouts are two-dimensional."""
        return 2

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The register layout of the A operand for ``shape``."""
        if len(shape) != 2:
            raise DimensionError("wgmma operand layouts are 2D")
        # Every warp along M indexes dim0; warps along N broadcast.
        wm, wn = self.parent.warps_per_cta
        warps = [0] * log2_int(wm) + [None] * log2_int(wn)
        return tile_to_shape(
            mma_operand_tile(0, self.kwidth), shape, order=(1, 0),
            stack={WARP: warps},
        )

    def __str__(self) -> str:
        return f"wgmma_operand(kWidth={self.kwidth}, parent={self.parent})"
