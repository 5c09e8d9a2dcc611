"""AMD CDNA ``mfma`` layouts (Proposition 4.7, AMD variant).

``mfma_f32_32x32x8`` runs on a 64-lane wavefront: lanes 0..31 index
the 32 accumulator columns, the high lane bit selects a 4-row group,
and each lane carries 16 values in four groups of four consecutive
rows.  AMD lacks an ``ldmatrix`` equivalent, which is why MI250's
speedups in Figure 9 are the smallest (Section 6.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int
from repro.layouts.common import tile_to_shape


def mfma_output_tile() -> LinearLayout:
    """The 32x32 accumulator tile of ``mfma_f32_32x32x8``."""
    return LinearLayout(
        {
            REGISTER: [(1, 0), (2, 0), (8, 0), (16, 0)],
            LANE: [(0, 1), (0, 2), (0, 4), (0, 8), (0, 16), (4, 0)],
        },
        {"dim0": 32, "dim1": 32},
        require_surjective=True,
    )


def mfma_operand_tile(op_idx: int) -> LinearLayout:
    """Operand fragments of ``mfma_f32_32x32x8`` (fp16).

    A is 32x8 (M x K): lanes 0..31 pick the row, the high lane bit
    picks the upper half of K, and each lane holds 4 consecutive K
    elements.  B is the K x N transpose.
    """
    if op_idx not in (0, 1):
        raise DimensionError(f"op_idx must be 0 or 1, got {op_idx}")
    if op_idx == 0:
        return LinearLayout(
            {
                REGISTER: [(0, 1), (0, 2)],
                LANE: [(1, 0), (2, 0), (4, 0), (8, 0), (16, 0), (0, 4)],
            },
            {"dim0": 32, "dim1": 8},
            require_surjective=True,
        )
    return LinearLayout(
        {
            REGISTER: [(1, 0), (2, 0)],
            LANE: [(0, 1), (0, 2), (0, 4), (0, 8), (0, 16), (4, 0)],
        },
        {"dim0": 8, "dim1": 32},
        require_surjective=True,
    )


@dataclass(frozen=True)
class AmdMfmaLayout:
    """Distributed layout of an ``mfma`` accumulator on CDNA GPUs."""

    warps_per_cta: Tuple[int, int]
    instr_shape: Tuple[int, int] = (32, 32)

    def __post_init__(self):
        for w in self.warps_per_cta:
            log2_int(w)
        if self.instr_shape != (32, 32):
            raise DimensionError(
                f"only the 32x32 mfma tile is modeled, got {self.instr_shape}"
            )

    @property
    def rank(self) -> int:
        """mfma layouts are two-dimensional."""
        return 2

    @property
    def warp_size(self) -> int:
        """CDNA wavefronts have 64 lanes."""
        return 64

    def num_warps(self) -> int:
        """Total wavefronts per workgroup."""
        return self.warps_per_cta[0] * self.warps_per_cta[1]

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The full accumulator layout for a tensor of ``shape``."""
        if len(shape) != 2:
            raise DimensionError("mfma layouts are two-dimensional")
        wm, wn = self.warps_per_cta
        warps = [0] * log2_int(wm) + [1] * log2_int(wn)
        return tile_to_shape(
            mfma_output_tile(), shape, order=(1, 0), stack={WARP: warps}
        )

    def __str__(self) -> str:
        return f"mfma(warpsPerCTA={list(self.warps_per_cta)})"
