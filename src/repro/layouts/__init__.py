"""Constructors for every layout family in Triton (Figure 3).

Each descriptor class captures the *parameters* of a legacy layout
(e.g. a blocked layout's ``size_per_thread`` / ``threads_per_warp`` /
``warps_per_cta`` / ``order``) and exposes ``to_linear(shape)``, the
constructive proof of Propositions 4.6-4.13 that every such layout is
a linear layout.
"""

from repro.layouts.blocked import BlockedLayout
from repro.layouts.cta import CtaLayout, same_block_component
from repro.layouts.common import tile_to_shape
from repro.layouts.mfma import AmdMfmaLayout
from repro.layouts.mma import (
    MmaOperandLayout,
    NvidiaMmaLayout,
    mma_output_tile,
    mma_operand_tile,
)
from repro.layouts.shared import (
    SwizzledSharedLayout,
    mma_swizzle_offset,
    shared_layout_for_mma,
)
from repro.layouts.sliced import SlicedLayout, slice_linear_layout
from repro.layouts.wgmma import WgmmaLayout, WgmmaOperandLayout

__all__ = [
    "AmdMfmaLayout",
    "BlockedLayout",
    "CtaLayout",
    "MmaOperandLayout",
    "same_block_component",
    "NvidiaMmaLayout",
    "SlicedLayout",
    "SwizzledSharedLayout",
    "WgmmaLayout",
    "WgmmaOperandLayout",
    "mma_operand_tile",
    "mma_output_tile",
    "mma_swizzle_offset",
    "shared_layout_for_mma",
    "slice_linear_layout",
    "tile_to_shape",
]
