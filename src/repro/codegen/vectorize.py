"""Global load/store vectorization (Section 5.1, Table 3).

Two analyses live here:

* the **linear** analysis — the largest identity-prefix of the
  register map in the flattened tensor, which sees contiguity across
  dimension boundaries; and
* the **legacy** analysis — the pre-linear-layout heuristic that only
  looks at runs inside the fastest non-unit dimension, reproducing the
  Table 3 failures (e.g. ``[512, 2] x f8`` stuck at 16-bit accesses).

Plus the anchor-layout choices of the two compilers: the legacy
default blocked encoding and the vectorization-maximizing layout the
linear engine can pick because it can convert out of it cheaply.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.core.properties import largest_vectorization
from repro.core.reshape import reshape_layout
from repro.hardware.instructions import Instruction, InstructionKind, instruction
from repro.hardware.spec import GpuSpec, RTX4090
from repro.layouts.blocked import BlockedLayout
from repro.f2.bitvec import log2_int


def vector_width_bits(
    layout: LinearLayout,
    elem_bits: int,
    max_vector_bits: int = 128,
) -> int:
    """Per-lane access width (bits) with the linear-layout analysis."""
    return largest_vectorization(
        layout, elem_bits, max_vector_bits=max_vector_bits
    )


def legacy_vector_width_bits(
    blocked: BlockedLayout,
    shape: Sequence[int],
    elem_bits: int,
    max_vector_bits: int = 128,
) -> int:
    """The legacy heuristic's access width.

    Contiguity is measured only along the fastest *non-unit* dimension
    (the axis-info analysis walked strides one dimension at a time),
    so elements contiguous across a dimension boundary are invisible.
    """
    for dim in blocked.order:
        if shape[dim] > 1:
            run = min(blocked.size_per_thread[dim], shape[dim])
            break
    else:
        run = 1
    bits = run * elem_bits
    while bits > max_vector_bits:
        bits >>= 1
    return max(bits, min(elem_bits, max_vector_bits))


def legacy_default_blocked(
    shape: Sequence[int],
    elem_bits: int,
    num_warps: int = 4,
    warp_size: int = 32,
) -> BlockedLayout:
    """Legacy Triton's default blocked encoding for a load/store.

    Vector elements are confined to the last dimension; remaining
    elements per thread stack along the outer dims (the wrap-around
    replication).  For ``[512, 1]`` this yields 4 rows per thread with
    unit width — which the legacy analysis then vectorizes along dim0,
    the Table 3 ``v1.b32`` row.
    """
    rank = len(shape)
    order = tuple(range(rank - 1, -1, -1))
    total = 1
    for s in shape:
        total *= s
    threads = num_warps * warp_size
    per_thread = max(1, total // threads)
    vec = min(shape[order[0]], 128 // elem_bits, per_thread)
    size_per_thread = [1] * rank
    size_per_thread[order[0]] = vec
    remaining = per_thread // vec
    for dim in order[1:]:
        take = min(remaining, shape[dim])
        size_per_thread[dim] = take
        remaining //= take
        if remaining <= 1:
            break
    tpw = [1] * rank
    remaining_threads = warp_size
    for dim in order:
        avail = shape[dim] // size_per_thread[dim]
        take = min(remaining_threads, avail)
        take = 1 << log2_int(take) if take & (take - 1) == 0 else 1 << (
            take.bit_length() - 1
        )
        tpw[dim] = take
        remaining_threads //= take
        if remaining_threads <= 1:
            break
    if remaining_threads > 1:
        tpw[order[-1]] *= remaining_threads
    wpc = [1] * rank
    remaining_warps = num_warps
    for dim in order:
        avail = max(1, shape[dim] // (size_per_thread[dim] * tpw[dim]))
        take = min(remaining_warps, avail)
        take = 1 << (take.bit_length() - 1)
        wpc[dim] = take
        remaining_warps //= take
        if remaining_warps <= 1:
            break
    if remaining_warps > 1:
        wpc[order[-1]] *= remaining_warps
    return BlockedLayout(
        size_per_thread=tuple(size_per_thread),
        threads_per_warp=tuple(tpw),
        warps_per_cta=tuple(wpc),
        order=order,
    )


def best_coalesced_layout(
    shape: Sequence[int],
    elem_bits: int,
    num_warps: int = 4,
    warp_size: int = 32,
    max_vector_bits: int = 128,
) -> LinearLayout:
    """The vectorization-maximizing anchor layout (linear mode).

    Registers take the lowest bits of the flattened tensor (a full
    vector per thread), lanes the next bits (perfect coalescing),
    warps after that, and any remainder wraps into high registers.
    Because linear layouts make conversions cheap and generic, the
    engine is free to anchor loads on this layout (Section 5.1).
    """
    total = 1
    for s in shape:
        log2_int(s)
        total *= s
    total_bits = log2_int(total)
    vec_bits_count = 0
    while (
        (1 << (vec_bits_count + 1)) * elem_bits <= max_vector_bits
        and vec_bits_count + 1 <= total_bits
    ):
        vec_bits_count += 1
    flat = LinearLayout.identity1d(1 << vec_bits_count, REGISTER, "dim0")
    lane_bits = min(log2_int(warp_size), total_bits - vec_bits_count)
    flat = flat * LinearLayout.identity1d(1 << lane_bits, LANE, "dim0")
    warp_bits = min(log2_int(num_warps), total_bits - vec_bits_count - lane_bits)
    flat = flat * LinearLayout.identity1d(1 << warp_bits, WARP, "dim0")
    used = vec_bits_count + lane_bits + warp_bits
    if used < total_bits:
        flat = flat * LinearLayout.identity1d(
            1 << (total_bits - used), REGISTER, "dim0"
        )
    # Pad out missing hardware dims so every layout has all three.
    if lane_bits < log2_int(warp_size):
        flat = flat * LinearLayout(
            {LANE: [(0,)] * (log2_int(warp_size) - lane_bits)},
            {"dim0": 1},
            require_surjective=False,
        )
    if warp_bits < log2_int(num_warps) and num_warps > 1:
        flat = flat * LinearLayout(
            {WARP: [(0,)] * (log2_int(num_warps) - warp_bits)},
            {"dim0": 1},
            require_surjective=False,
        )
    # reshape_layout flattens row-major; the flat dim0 here *is* the
    # row-major flattened index, so reshape recovers the true shape.
    return reshape_layout(flat, list(shape))


def global_access_plan(
    layout: LinearLayout,
    elem_bits: int,
    spec: GpuSpec = RTX4090,
    kind: InstructionKind = InstructionKind.GLOBAL_LOAD,
    vector_bits: int = None,
) -> Tuple[Instruction, int]:
    """The instruction record and per-thread count for a global access."""
    if vector_bits is None:
        vector_bits = vector_width_bits(
            layout, elem_bits, spec.max_vector_bits
        )
    regs = layout.in_dim_size(REGISTER)
    total_bits = regs * elem_bits
    count = max(1, total_bits // vector_bits)
    return instruction(kind, vector_bits=vector_bits, count=count), count


def ptx_vector_name(vector_bits: int) -> str:
    """Table 3's instruction naming, e.g. 128 -> ``v4.b32``."""
    if vector_bits >= 32:
        return f"v{vector_bits // 32}.b32"
    return f"v1.b{vector_bits}"
