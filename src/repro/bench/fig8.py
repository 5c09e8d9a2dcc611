"""Figure 8: gather speedups — warp shuffles vs shared memory.

When the gathered axis stays within a warp, ``tl.gather`` lowers to
``2^{|L_Thr^axis|}`` shuffle rounds per output position (Section 5.5).
The speedup over the staged-through-shared legacy lowering collapses
once the axis grows past the point where shuffle rounds outweigh the
round trip — the paper sees the drop after ``[512, 32]``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.harness import Table
from repro.codegen.gather import gather_shared_program, gather_shuffle_program
from repro.core.layout import LinearLayout
from repro.gpusim.opcost import price_program
from repro.hardware.spec import GH200, GpuSpec
from repro.layouts.blocked import BlockedLayout
from repro.mxfp.types import F16, F32, DType


def gather_layout(rows: int, axis_size: int) -> LinearLayout:
    """A layout keeping the gather axis (dim1) within each warp.

    Lanes cover the axis as far as they can; the rest goes to
    registers.  Rows spread over the remaining lanes and warps.
    """
    axis_lanes = min(axis_size, 32)
    row_lanes = 32 // axis_lanes
    desc = BlockedLayout(
        size_per_thread=(1, max(1, axis_size // axis_lanes)),
        threads_per_warp=(row_lanes, axis_lanes),
        warps_per_cta=(4, 1),
        order=(1, 0),
    )
    return desc.to_linear((rows, axis_size))


def gather_cycles(
    rows: int, axis_size: int, dtype: DType, spec: GpuSpec
) -> Tuple[float, float]:
    """(shared cycles, shuffle cycles) for one gather case.

    The prices of the two gather programs.  The shared one is priced
    as the standalone microbenchmark runs it: the gathered loads are
    address-dependent and pay full latency, with the ~2-way bank
    conflicts of the random access pattern.
    """
    layout = gather_layout(rows, axis_size)
    shared = gather_shared_program(layout, axis=1)
    shuffle = gather_shuffle_program(layout, axis=1)
    return (
        price_program(shared, spec, measured=(2,)).cycles(),
        price_program(shuffle, spec).cycles(),
    )


def run_fig8(
    rows: int = 512,
    axis_sizes: List[int] = (2, 4, 8, 16, 32, 64, 128),
    spec: GpuSpec = GH200,
) -> Table:
    """Sweep gathered-axis sizes; report the crossover curve."""
    table = Table(
        title=f"Figure 8: gather speedups ({spec.name})",
        headers=["shape", "dtype", "shared_cycles", "shuffle_cycles",
                 "speedup"],
    )
    for dtype in (F16, F32):
        for axis in axis_sizes:
            shared, shuffle = gather_cycles(rows, axis, dtype, spec)
            table.add_row(
                f"[{rows},{axis}]", str(dtype), shared, shuffle,
                shared / shuffle,
            )
    table.notes.append(
        "paper: up to 14.2x, dropping once the gathered axis exceeds "
        "~32 (shuffle rounds outgrow the shared round trip)"
    )
    return table
