"""Figure 7: layout conversion speedups — warp shuffles vs shared memory.

Conversions whose warp components match can bypass shared memory
entirely (Section 5.4).  Legacy Triton always staged through shared
memory; the speedup is the priced ratio, swept over tensor sizes and
dtypes.  It grows with the shared round-trip's relative cost and
shrinks as the tensor (and hence the number of shuffle rounds) grows.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.bench.harness import Table
from repro.codegen.conversion import plan_conversion
from repro.gpusim.opcost import price_program
from repro.hardware.spec import GH200, GpuSpec
from repro.layouts.blocked import BlockedLayout
from repro.mxfp.types import F16, F32, F8E5M2, DType


def shuffle_pair(size: int) -> Tuple[BlockedLayout, BlockedLayout]:
    """Two blocked layouts differing in the register/lane split only
    (same warp placement), so the shuffle path applies."""
    a = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0))
    b = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0))
    return a, b


def _global_traffic_cycles(
    size: int, dtype: DType, spec: GpuSpec, threads: int = 128
) -> float:
    """Load + store cycles of the benchmark kernel wrapping the
    conversion (the paper measures whole kernels)."""
    bytes_per_thread = size * size * dtype.bytes // threads
    insts = max(1, bytes_per_thread // (spec.max_vector_bits // 8))
    per = spec.issue_cycles + spec.gmem_transaction_cycles
    return 2 * insts * per


def conversion_speedup(
    size: int, dtype: DType, spec: GpuSpec = GH200
) -> Tuple[float, float, float]:
    """(shared cycles, shuffle cycles, speedup) for one case."""
    a_desc, b_desc = shuffle_pair(size)
    shape = (size, size)
    src = a_desc.to_linear(shape)
    dst = b_desc.to_linear(shape)
    linear = plan_conversion(
        src, dst, dtype.bits, spec=spec, allow_shuffle=True
    )
    legacy = plan_conversion(
        src, dst, dtype.bits, spec=spec, allow_shuffle=False,
        swizzle_mode="padded", dedupe_broadcast=False,
    )
    wrap = _global_traffic_cycles(size, dtype, spec)
    lin_cycles = price_program(linear.program, spec).cycles() + wrap
    leg_cycles = price_program(legacy.program, spec).cycles() + wrap
    return leg_cycles, lin_cycles, leg_cycles / lin_cycles


def run_fig7(
    sizes: List[int] = (32, 64, 128, 256),
    spec: GpuSpec = GH200,
) -> Table:
    """Sweep sizes and dtypes; report shuffle-vs-shared speedups."""
    table = Table(
        title=f"Figure 7: layout conversion speedups ({spec.name})",
        headers=["size", "dtype", "shared_cycles", "shuffle_cycles",
                 "speedup"],
    )
    for dtype in (F8E5M2, F16, F32):
        for size in sizes:
            leg, lin, speedup = conversion_speedup(size, dtype, spec)
            table.add_row(f"{size}x{size}", str(dtype), leg, lin, speedup)
    table.notes.append(
        "paper: up to 3.93x, shrinking as tensors grow (more shuffle "
        "rounds amortize the fixed shared round trip)"
    )
    return table
