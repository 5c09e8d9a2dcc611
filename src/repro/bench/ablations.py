"""Ablation study: how much does each design choice buy?

DESIGN.md calls out four load-bearing mechanisms in the linear-layout
codegen.  Each ablation disables exactly one of them on the workload
that exercises it and reports the cycle cost:

* **optimal swizzling** (vs raw and padded staging) on the f8
  transpose conversion;
* **the warp-shuffle fast path** (vs forced shared memory) on an
  intra-warp conversion;
* **broadcast deduplication** on a conversion from a replicated
  layout;
* **ldmatrix/stmatrix staging** on a blocked→MMA-operand conversion
  (platform-gated: GH200 with vs without the matrix instructions).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.bench.harness import Table
from repro.codegen.conversion import plan_conversion
from repro.gpusim.opcost import price_program
from repro.hardware.spec import GH200
from repro.layouts import (
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
)
from repro.program.ir import Opcode


def _cycles(src, dst, bits, **kwargs) -> float:
    plan = plan_conversion(src, dst, bits, spec=GH200, **kwargs)
    return price_program(plan.program, GH200).cycles()


def ablate_swizzling() -> List[List]:
    """Column-major to row-major f32: lanes stride whole rows in the
    staged tile, the worst case for unswizzled banks."""
    src = BlockedLayout((4, 1), (1, 32), (1, 4), (0, 1)).to_linear(
        (64, 64)
    )
    dst = BlockedLayout((1, 4), (32, 1), (4, 1), (1, 0)).to_linear(
        (64, 64)
    )
    full = _cycles(src, dst, 32, swizzle_mode="optimal",
                   allow_shuffle=False)
    padded = _cycles(src, dst, 32, swizzle_mode="padded",
                     allow_shuffle=False)
    raw = _cycles(src, dst, 32, swizzle_mode="none",
                  allow_shuffle=False)
    return [
        ["swizzle: optimal (full)", full, 1.0],
        ["swizzle: padding heuristic", padded, padded / full],
        ["swizzle: none (raw rows)", raw, raw / full],
    ]


def ablate_shuffle_path() -> List[List]:
    """Force an intra-warp conversion through shared memory."""
    src = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)).to_linear(
        (32, 64)
    )
    dst = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0)).to_linear(
        (32, 64)
    )
    full = _cycles(src, dst, 16, allow_shuffle=True)
    no_shuffle = _cycles(src, dst, 16, allow_shuffle=False)
    return [
        ["shuffle path: on (full)", full, 1.0],
        ["shuffle path: off", no_shuffle, no_shuffle / full],
    ]


def ablate_broadcast_dedupe() -> List[List]:
    """Count shared stores with and without duplicate elimination.

    A source whose warps replicate the data 4x issues 4x the stores
    unless the zero-column analysis skips the replicas (Section 5.1).
    """
    src = BlockedLayout((2, 8), (8, 4), (1, 1), (1, 0)).to_linear(
        (16, 32)
    )
    src = src.resize_in_dim("warp", 4)  # 4 warps, all replicas
    dst = NvidiaMmaLayout((2, 2)).to_linear((16, 32))

    def store_count(dedupe: bool) -> int:
        plan = plan_conversion(
            src, dst, 16, spec=GH200, dedupe_broadcast=dedupe
        )
        return sum(
            len(a)
            for instr in plan.program
            if instr.opcode == Opcode.STS
            for a in instr.accesses.to_tuples()
        )

    full = store_count(True)
    no_dedupe = store_count(False)
    return [
        ["broadcast dedupe: on (full), CTA stores", full, 1.0],
        [
            "broadcast dedupe: off, CTA stores",
            no_dedupe,
            no_dedupe / full,
        ],
    ]


def ablate_matrix_instructions() -> List[List]:
    """ldmatrix on a hardware-mandated staging layout.

    When another consumer (wgmma) fixes the shared tile's swizzle,
    the loader cannot re-choose the layout; ldmatrix is what keeps
    the loads wide.
    """
    from repro.layouts import shared_layout_for_mma

    src = BlockedLayout((1, 8), (8, 4), (2, 2), (1, 0)).to_linear(
        (64, 64)
    )
    dst = MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2).to_linear(
        (64, 64)
    )
    mem = shared_layout_for_mma(16, (64, 64)).to_linear((64, 64))
    with_matrix = price_program(
        plan_conversion(src, dst, 16, spec=GH200, memory_layout=mem).program,
        GH200,
    ).cycles()
    no_matrix_spec = replace(
        GH200, has_ldmatrix=False, has_stmatrix=False
    )
    without = price_program(
        plan_conversion(
            src, dst, 16, spec=no_matrix_spec, memory_layout=mem
        ).program,
        no_matrix_spec,
    ).cycles()
    return [
        ["ldmatrix: available (full)", with_matrix, 1.0],
        ["ldmatrix: removed", without, without / with_matrix],
    ]


def run_ablations() -> Table:
    """All ablation blocks as one table."""
    table = Table(
        title="Ablations: cost of disabling each codegen mechanism "
        "(GH200)",
        headers=["configuration", "cycles", "slowdown vs full"],
    )
    for rows in (
        ablate_swizzling(),
        ablate_shuffle_path(),
        ablate_broadcast_dedupe(),
        ablate_matrix_instructions(),
    ):
        for row in rows:
            table.add_row(*row)
    table.notes.append(
        "each block ablates one mechanism on the workload that "
        "stresses it; 'full' rows are the reference"
    )
    return table
