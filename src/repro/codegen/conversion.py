"""The layout-conversion planner (Section 5.4).

``plan_conversion`` is the compiler's decision procedure: given source
and destination distributed layouts it picks, in order of preference,

1. **no-op** — the layouts are equivalent (e.g. a Blocked and a Sliced
   layout describing the same map; legacy Triton could not compare
   across kinds, missing the welford no-op of Section 6.2);
2. **register permutation** — only ``(B^{-1}A)_Reg`` differs;
3. **warp shuffles** — warp components match and nothing broadcasts
   (Section 5.4's fast path, bypassing shared memory entirely);
4. **shared memory** — the general path, staged through either the
   optimal swizzled layout (linear mode) or the legacy padded layout.
"""

from __future__ import annotations

import enum
import functools
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro import cache as _cache
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.core.layout import LinearLayout
from repro.codegen.access import SharedAccesses
from repro.codegen.plan import ConversionPlan
from repro.codegen.shuffles import ShufflePlanError, plan_warp_shuffle
from repro.codegen.swizzle import (
    SwizzlePlan,
    offset_bit_budget,
    optimal_swizzled_layout,
)
from repro.codegen.views import DistributedView, owner_table, slot_table
from repro.hardware.spec import GpuSpec, RTX4090


class ConversionKind(enum.Enum):
    """The four lowering strategies, cheapest first."""
    NOOP = "noop"
    REGISTER = "register"
    SHUFFLE = "shuffle"
    SHARED = "shared"


def classify_conversion(
    src: LinearLayout, dst: LinearLayout
) -> ConversionKind:
    """Which lowering the planner will choose for ``src -> dst``."""
    if dict(src.out_dim_sizes()) != dict(dst.out_dim_sizes()):
        raise LayoutError("conversion endpoints differ in logical shape")
    if src.equivalent(dst):
        return ConversionKind.NOOP
    same_lanes = src.basis_images_flat(LANE) == dst.basis_images_flat(LANE)
    same_warps = src.basis_images_flat(WARP) == dst.basis_images_flat(WARP)
    if same_lanes and same_warps:
        return ConversionKind.REGISTER
    if same_warps:
        sv, dv = DistributedView(src), DistributedView(dst)
        # Register broadcasting is deduplicated inside the shuffle
        # planner; only lane broadcasting forces shared memory.
        broadcasts = any(
            v.has_broadcasting(LANE) for v in (sv, dv)
        )
        if not broadcasts:
            return ConversionKind.SHUFFLE
    return ConversionKind.SHARED


def _register_permutation(src: LinearLayout, dst: LinearLayout):
    """The move ``out[r] <- in[dst_to_src[r]]``, uniform across lanes/warps.

    Lane 0 of warp 0's slot table row gives each destination
    register's position; the source owner table gives its register.
    """
    from repro.program.ir import MovR

    flats = slot_table(dst)[0, 0]
    return MovR(
        dst_to_src=tuple(owner_table(src)[flats, 0].tolist()),
        lanes=dst.in_dim_size(LANE),
        warps=dst.in_dim_size(WARP),
    )


def _group_contiguous(
    offsets: np.ndarray, max_vec: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Group each row's offsets into aligned power-of-two vectors.

    Row ``t`` lists one thread's (offset, reg) pairs by their offsets,
    in the order they are consumed: *register* order, so every lane
    of the warp groups the same registers into the same instruction —
    instructions then align with the affine cosets the swizzle
    algorithm reasons about (Lemma 9.4 counts conflicts per coset;
    mixing cosets in one instruction would reintroduce conflicts the
    analysis excluded).  Within a vector the offsets must be
    contiguous and the first one aligned.

    The vectors are those of a greedy pass from the front: each is
    the widest of ``max_vec, max_vec >> 1, ...`` that fits the
    contiguous run starting there and divides its base offset.  No
    vector crosses a run, so from a run's start that greedy pass is
    the canonical dyadic decomposition of the run's offset interval
    ``[low, high]``, in blocks of at most ``max_vec``: the vector
    holding a position is the largest aligned block that holds it and
    lies inside its run.  The ``2^k`` block holding offset ``x`` lies
    inside iff ``x >> k`` differs from both ``(low - 1) >> k`` and
    ``(high + 1) >> k``, i.e. iff ``2^k`` is at most both XORs — so
    each position's width is a table lookup, and a position starts a
    vector iff its offset is aligned to that width.  There is no walk:
    when every row is already ``max_vec``-aligned contiguous blocks the
    grouping is the uniform grid, when all rows start vectors at the
    same positions (threads in lockstep) row 0's starts serve all, and
    otherwise the starts are ranked per row.

    ``max_vec`` must be a power of two (every caller's vector width
    in elements is); anything else raises ``ValueError``.  Returns
    ``(start, width)``, each ``(threads, max_accesses)``: the pair
    index where access ``k`` starts and its element count (0, with
    start ``n - 1``, past a thread's last access).
    """
    if max_vec < 1 or max_vec & (max_vec - 1):
        raise ValueError(f"max_vec must be a power of two, got {max_vec}")
    threads, n = offsets.shape
    if n % max_vec == 0:
        blocks = offsets.reshape(threads, n // max_vec, max_vec)
        lead = blocks[:, :, :1]
        if (lead % max_vec == 0).all() and (
            blocks == lead + np.arange(max_vec)
        ).all():
            start = np.arange(0, n, max_vec)
            return (
                np.tile(start, (threads, 1)),
                np.full((threads, len(start)), max_vec, dtype=np.int64),
            )
    # Runs over the flattened rows; a row's first position opens one.
    flat = offsets.ravel()
    opens = np.empty(flat.size, dtype=bool)
    opens[0] = True
    np.not_equal(flat[1:], flat[:-1] + 1, out=opens[1:])
    opens[::n] = True
    first = np.flatnonzero(opens)
    last = np.append(first[1:], flat.size) - 1
    run = np.cumsum(opens) - 1
    # Unsigned, so a sign change (low == 0) never limits the width.
    below = ((flat[first] - 1)[run] ^ flat).view(np.uint64)
    above = ((flat[last] + 1)[run] ^ flat).view(np.uint64)
    reach = np.minimum(np.minimum(below, above), np.uint64(max_vec))
    floor_pow2 = np.array(
        [1 << max(0, i.bit_length() - 1) for i in range(max_vec + 1)]
    )
    vec = floor_pow2[reach.astype(np.intp)].reshape(threads, n)
    leads = (offsets & (vec - 1)) == 0
    if (leads == leads[:1]).all():
        col = np.flatnonzero(leads[0])
        return np.tile(col, (threads, 1)), vec[:, col]
    row, col = np.nonzero(leads)
    counts = leads.sum(axis=1)
    rank = np.arange(len(row)) - (np.cumsum(counts) - counts)[row]
    shape = (threads, int(counts.max()))
    start = np.full(shape, n - 1, dtype=np.int64)
    width = np.zeros(shape, dtype=np.int64)
    start[row, rank] = col
    width[row, rank] = vec[row, col]
    return start, width


def _vec_bit_positions(
    layout: LinearLayout, vec_basis: Sequence[int]
) -> Optional[List[int]]:
    """Register-bit indices whose flat images form the Vec subspace."""
    images = layout.basis_images_flat(REGISTER)
    positions = []
    for v in vec_basis:
        try:
            positions.append(images.index(v))
        except ValueError:
            return None
    return positions


def _shared_accesses(
    layout: LinearLayout,
    staging: Hashable,
    offsets: Callable[[], np.ndarray],
    num_warps: int,
    warp_size: int,
    max_vec_elems: int,
    dedupe_broadcast: bool,
    vec_basis: Optional[Sequence[int]] = None,
    sort_by_offset: bool = False,
) -> SharedAccesses:
    """Per-CTA-thread vectorized access lists for a layout.

    ``offsets()`` returns the offset table and is called only on a
    memo miss: ``offsets()[p]`` is the shared element offset of
    flattened logical position ``p``.  ``staging`` identifies it (the
    staging layout's canonical key, or the legacy padding parameters).
    The access table is memoized in :data:`repro.cache.plans` on the
    layout, the staging, the warp count and size and the vector
    options.  No :class:`GpuSpec` is in the key, so a conversion
    planned on two platforms that agree on all of these builds its
    tables once.
    """
    key = (
        "shared_accesses",
        layout.canonical_key(),
        staging,
        num_warps,
        warp_size,
        max_vec_elems,
        dedupe_broadcast,
        None if vec_basis is None else tuple(vec_basis),
        sort_by_offset,
    )
    return _cache.cached(
        _cache.plans,
        key,
        lambda: _build_accesses(
            layout, offsets(), num_warps, warp_size, max_vec_elems,
            dedupe_broadcast, vec_basis, sort_by_offset,
        ),
    )


def _build_accesses(
    layout: LinearLayout,
    offsets: np.ndarray,
    num_warps: int,
    warp_size: int,
    max_vec_elems: int,
    dedupe_broadcast: bool,
    vec_basis: Optional[Sequence[int]] = None,
    sort_by_offset: bool = False,
) -> SharedAccesses:
    """The uncached :func:`_shared_accesses`.

    Positions come from the layout's whole-range F2 slot table (as in
    :func:`~repro.codegen.views.slot_table`), so nothing here runs per
    element.  With ``dedupe_broadcast`` (linear mode), replicas —
    hardware indices whose free bits are non-zero — are skipped, which
    is the Table 4 instruction saving.

    When ``vec_basis`` is given (the optimal-swizzle path), registers
    are enumerated so the Vec-subspace register bits run fastest —
    every instruction then covers exactly one vectorized coset, as the
    swizzle analysis assumes.

    Only warp 0's rows, all static pricing reads, are built here; the
    value is :meth:`~SharedAccesses.deferred`.
    """
    free = layout.free_variable_masks()
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    reg_order = np.arange(regs, dtype=np.int64)
    if vec_basis:
        positions = _vec_bit_positions(layout, vec_basis)
        if positions is not None:
            n_bits = layout.in_dim_size_log2(REGISTER)
            others = [i for i in range(n_bits) if i not in positions]
            counter = reg_order
            reg_order = np.zeros(regs, dtype=np.int64)
            # Vec bits run fastest.
            for j, bit in enumerate(positions + others):
                reg_order |= ((counter >> j) & 1) << bit
    all_warps = np.arange(min(num_warps, layout.in_dim_size(WARP)))
    lane_ids = np.arange(min(warp_size, lanes))
    if dedupe_broadcast:
        all_warps = all_warps[(all_warps & free.get(WARP, 0)) == 0]
        lane_ids = lane_ids[(lane_ids & free.get(LANE, 0)) == 0]
        reg_order = reg_order[(reg_order & free.get(REGISTER, 0)) == 0]

    def table(warps: int) -> SharedAccesses:
        """The accesses of the first ``warps`` warps."""
        warp_ids = all_warps[all_warps < warps]
        # Threads the layout spans (lanes/warps past it access nothing).
        tid = (warp_ids[:, None] * warp_size + lane_ids).ravel()
        slot = (warp_ids[:, None] * lanes + lane_ids).ravel()
        # The slot table (endpoints are checked distributed by the
        # planner); warp 0's holds the warp dim at 0.
        flats = layout.flat_table(
            (REGISTER, LANE, WARP) if warps > 1 else (REGISTER, LANE)
        )
        offs = offsets[flats[slot[:, None] * regs + reg_order]]
        reg = np.broadcast_to(reg_order, offs.shape)
        if sort_by_offset:
            # Legacy staging groups by raw memory contiguity; the
            # optimal path keeps register (coset) order instead.
            # Registers are distinct within a row, so one sort of
            # (offset, reg) keys packed into an int64 orders both.
            bits = layout.in_dim_size_log2(REGISTER)
            keys = np.sort((offs << bits) | reg, axis=1)
            offs, reg = keys >> bits, keys & (regs - 1)
        start, width = _group_contiguous(offs, max_vec_elems)
        n = offs.shape[1]
        vec = int(width.max(initial=0))
        if start.shape[1] * vec == n and (width == vec).all():
            # The uniform grid: access k is pairs [k * vec, (k + 1) * vec).
            row_base = offs[:, ::vec]
            row_regs = reg.reshape(start.shape + (vec,))
        else:
            elem = np.arange(vec)
            at = np.minimum(start[:, :, None] + elem, n - 1)
            row_base = np.where(
                width > 0, np.take_along_axis(offs, start, axis=1), 0
            )
            row_regs = np.where(
                elem < width[:, :, None],
                np.take_along_axis(
                    reg, at.reshape(len(tid), -1), axis=1
                ).reshape(at.shape),
                -1,
            )
        base = np.zeros((warps * warp_size, start.shape[1]), dtype=np.int64)
        lens = np.zeros_like(base)
        vec_regs = np.full(base.shape + (vec,), -1, dtype=np.int64)
        base[tid] = row_base
        lens[tid] = width
        vec_regs[tid] = row_regs
        return SharedAccesses(base, lens, vec_regs)

    head = table(1)
    if num_warps == 1:
        return head
    return SharedAccesses.deferred(head, lambda: table(num_warps))


def _swizzled_offsets(memory_layout: LinearLayout) -> np.ndarray:
    """Element offset of every flat position under a staging layout.

    The table of ``memory_layout.invert()`` (Section 5.4), whose
    inputs are the logical dims flattened row-major — the order of
    ``memory_layout.unflatten_out``.
    """
    return memory_layout.invert().flat_table(
        list(reversed(memory_layout.out_dims))
    )


def plan_conversion(
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec = RTX4090,
    allow_shuffle: bool = True,
    swizzle_mode: str = "optimal",
    dedupe_broadcast: bool = True,
    memory_layout: Optional[LinearLayout] = None,
) -> ConversionPlan:
    """Lower a layout conversion to an executable plan.

    ``swizzle_mode`` selects the shared staging strategy: ``optimal``
    (the Section 5.4 algorithm), ``padded`` (the legacy heuristic —
    pad each bank row to spread conflicts, at the price of footprint
    and vectorization), or ``none`` (raw rows, the ablation baseline).
    ``allow_shuffle=False`` reproduces the legacy always-through-shared
    behaviour benchmarked in Figure 7.

    ``memory_layout`` pins the staging layout (offset -> logical dims)
    instead of letting the planner choose — the situation where
    hardware dictates the shared layout, e.g. a tile another consumer
    (wgmma) must read with a specific swizzle.

    Plans are memoized in :data:`repro.cache.plans` keyed on the
    canonical layout keys, the hardware spec, and every planner
    option; callers must treat the returned plan as immutable (its
    instructions already are).  ``repro.cache.clear()`` invalidates;
    ``REPRO_CACHE=0`` bypasses.
    """
    key = (
        "plan_conversion",
        src.canonical_key(),
        dst.canonical_key(),
        elem_bits,
        spec,
        allow_shuffle,
        swizzle_mode,
        dedupe_broadcast,
        None if memory_layout is None else memory_layout.canonical_key(),
    )
    return _cache.cached(
        _cache.plans,
        key,
        lambda: _plan_conversion_uncached(
            src,
            dst,
            elem_bits,
            spec,
            allow_shuffle,
            swizzle_mode,
            dedupe_broadcast,
            memory_layout,
        ),
    )


def _plan_conversion_uncached(
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec,
    allow_shuffle: bool,
    swizzle_mode: str,
    dedupe_broadcast: bool,
    memory_layout: Optional[LinearLayout],
) -> ConversionPlan:
    from repro.layouts.cta import same_block_component, strip_block
    # Deferred, like every repro.program import in codegen: the
    # program package imports gpusim, which imports this module.
    from repro.program.ir import R_IN, WarpProgram

    if not same_block_component(src, dst):
        raise LayoutError(
            "conversion moves data across CTAs; distributed shared "
            "memory / global round trips are outside intra-CTA codegen"
        )
    # Equal block components: the conversion is identical within each
    # CTA, so plan on the per-CTA quotient.
    src = strip_block(src)
    dst = strip_block(dst)
    kind = classify_conversion(src, dst)
    if kind == ConversionKind.NOOP:
        return ConversionPlan(
            "noop", src, dst, WarpProgram((), result=R_IN, label="noop")
        )
    if kind == ConversionKind.REGISTER:
        program = WarpProgram(
            (_register_permutation(src, dst),), label="register"
        )
        return ConversionPlan("register", src, dst, program)
    if kind == ConversionKind.SHUFFLE and allow_shuffle:
        try:
            rounds = plan_warp_shuffle(
                src, dst, elem_bits, shuffle_bits=spec.shuffle_bytes * 8
            )
            program = WarpProgram(tuple(rounds), label="shuffle")
            return ConversionPlan("shuffle", src, dst, program)
        except ShufflePlanError as exc:
            note = f"shuffle fallback: {exc}"
        else:  # pragma: no cover
            note = ""
    else:
        note = ""

    # Shared-memory path.
    elem_bytes = max(1, elem_bits // 8)
    num_warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    # Both endpoints must be distributed layouts (Definition 4.10).
    DistributedView(src)
    dv = DistributedView(dst)
    d = src.total_out_bits()
    notes = [note] if note else []

    if memory_layout is not None:
        fixed = _plan_from_memory_layout(
            memory_layout, src, dst, elem_bits, spec
        )
        program, extra_notes = _swizzled_program(
            fixed, src, dst, elem_bits, spec,
            num_warps, dedupe_broadcast,
        )
        return ConversionPlan(
            kind="shared",
            src=src,
            dst=dst,
            program=program,
            shared_bytes=(1 << d) * elem_bytes,
            notes=notes + ["fixed staging layout"] + extra_notes,
        )
    if swizzle_mode == "optimal":
        candidates = []
        if (spec.has_ldmatrix or spec.has_stmatrix) and 8 <= elem_bits <= 32:
            staged = _try_matrix_staging(src, dst, dv, elem_bits, spec)
            if staged is not None:
                candidates.append(staged)
        candidates.append(
            optimal_swizzled_layout(
                src,
                dst,
                elem_bits,
                bank_row_bytes=spec.bank_row_bytes,
                max_vector_bits=spec.max_vector_bits,
            )
        )
        plans = []
        for swplan in candidates:
            program, extra_notes = _swizzled_program(
                swplan, src, dst, elem_bits, spec,
                num_warps, dedupe_broadcast,
            )
            plans.append(ConversionPlan(
                kind="shared",
                src=src,
                dst=dst,
                program=program,
                shared_bytes=(1 << d) * elem_bytes,
                notes=notes + extra_notes,
            ))
        # Price only when there is a choice; the first cheapest wins.
        if len(plans) == 1:
            return plans[0]
        return min(plans, key=lambda plan: _plan_cost(plan, spec))
    elif swizzle_mode == "none":
        # Ablation baseline: raw row-major staging, no swizzle, no
        # padding.  Strided access patterns conflict maximally here —
        # this is what the optimal-swizzling algorithm is up against.
        offsets = np.arange(1 << d, dtype=np.int64)
        staging = ("none",)
        max_vec = max(1, spec.max_vector_bits // elem_bits)
        shared_bytes = (1 << d) * elem_bytes
        notes.append("unswizzled staging (ablation)")
    elif swizzle_mode == "padded":
        # One full vector of padding per bank row: preserves vector
        # alignment across padded rows — the legacy "shared memory
        # padding" heuristic.
        pad_elems = max(1, 128 // elem_bits)
        # Row-major flat storage with one pad per bank row worth of
        # elements (the legacy heuristic applied to the flattened
        # tensor).
        row_elems = spec.bank_row_bytes // elem_bytes
        flat = np.arange(1 << d, dtype=np.int64)
        offsets = flat + (flat // row_elems) * pad_elems
        staging = ("padded", row_elems, pad_elems)

        # Each side vectorizes by whatever contiguity survives the
        # padding; the grouping below discovers it per lane.
        max_vec = max(1, spec.max_vector_bits // elem_bits)
        total_rows = (1 << d) // row_elems + 1
        shared_bytes = ((1 << d) + total_rows * pad_elems) * elem_bytes
        notes.append(f"padded staging: pad={pad_elems} elems")
    else:
        raise ValueError(f"unknown swizzle_mode {swizzle_mode!r}")

    stores = _shared_accesses(
        src, staging, lambda: offsets, num_warps, spec.warp_size,
        max_vec, dedupe_broadcast, sort_by_offset=True,
    )
    loads = _shared_accesses(
        dst, staging, lambda: offsets, num_warps, spec.warp_size,
        max_vec, dedupe_broadcast=False, sort_by_offset=True,
    )
    return ConversionPlan(
        kind="shared",
        src=src,
        dst=dst,
        program=_shared_program(stores, loads, elem_bytes),
        shared_bytes=shared_bytes,
        notes=notes,
    )


def _shared_program(
    stores: SharedAccesses,
    loads: SharedAccesses,
    elem_bytes: int,
    use_stmatrix: bool = False,
    use_ldmatrix: bool = False,
):
    """Stage through shared memory: store ``in``, barrier, load ``out``."""
    from repro.program.ir import Bar, Lds, Sts, WarpProgram

    return WarpProgram(
        (
            Sts(stores, elem_bytes, use_stmatrix=use_stmatrix),
            Bar(),
            Lds(loads, elem_bytes, use_ldmatrix=use_ldmatrix),
        ),
        label="shared",
    )


def _plan_from_memory_layout(
    memory_layout: LinearLayout,
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec,
) -> SwizzlePlan:
    """Wrap a pinned staging layout as a SwizzlePlan.

    The Vec subspace is whatever prefix of the layout's low offset
    bits both register files can vectorize over; the bits above it
    split into sub-word, bank and segment bits as in
    :func:`~repro.codegen.swizzle.optimal_swizzled_layout` (for the
    conflict lemma's bookkeeping).
    """
    flat_bases = [
        memory_layout.basis_image_flat("offset", i)
        for i in range(memory_layout.in_dim_size_log2("offset"))
    ]
    a_regs = set(x for x in src.basis_images_flat(REGISTER) if x)
    b_regs = set(x for x in dst.basis_images_flat(REGISTER) if x)
    vec = []
    for base in flat_bases:
        if base in a_regs and base in b_regs and (
            (1 << (len(vec) + 1)) * elem_bits <= 128
        ):
            vec.append(base)
        else:
            break
    v = len(vec)
    n_sub, b_bits, _ = offset_bit_budget(
        (1 << v) * max(1, elem_bits // 8),
        len(flat_bases) - v,
        spec.bank_row_bytes,
    )
    bank = v + n_sub
    return SwizzlePlan(
        memory_layout=memory_layout,
        vec_basis=tuple(vec),
        subword_basis=tuple(flat_bases[v:bank]),
        bank_basis=tuple(flat_bases[bank: bank + b_bits]),
        seg_basis=tuple(flat_bases[bank + b_bits:]),
        elem_bits=elem_bits,
        conflict_free=False,
    )


def _plan_cost(plan: ConversionPlan, spec: GpuSpec) -> float:
    """Price a candidate plan through its program's price memo, which
    the winner keeps (deferred import: gpusim uses codegen)."""
    from repro.gpusim.opcost import program_price

    return program_price(plan.program, spec)[1]


def _swizzled_program(
    swplan,
    src: LinearLayout,
    dst: LinearLayout,
    elem_bits: int,
    spec: GpuSpec,
    num_warps: int,
    dedupe_broadcast: bool,
):
    """The store/barrier/load program for one candidate staging layout."""
    from repro.codegen.division import ldmatrix_applicable
    from repro.hardware.instructions import ldmatrix_tile

    elem_bytes = max(1, elem_bits // 8)
    staging = swplan.memory_layout.canonical_key()
    # Built on the first memo miss only; both lookups may hit.
    offsets = functools.cache(
        lambda: _swizzled_offsets(swplan.memory_layout)
    )
    stores = _shared_accesses(
        src, staging, offsets, num_warps, spec.warp_size,
        swplan.vec_elems, dedupe_broadcast, vec_basis=swplan.vec_basis,
    )
    loads = _shared_accesses(
        dst, staging, offsets, num_warps, spec.warp_size,
        swplan.vec_elems, dedupe_broadcast=False,
        vec_basis=swplan.vec_basis,
    )
    use_ldmatrix = use_stmatrix = False
    if 8 <= elem_bits <= 32:
        tile = ldmatrix_tile(elem_bits)
        if spec.has_ldmatrix:
            use_ldmatrix = ldmatrix_applicable(
                dst, swplan.memory_layout, tile
            )
        if spec.has_stmatrix:
            use_stmatrix = ldmatrix_applicable(
                src, swplan.memory_layout, tile
            )
    extra_notes = [
        f"optimal swizzle: vec={swplan.vec_elems} elems, "
        f"conflict_free={swplan.conflict_free}"
    ]
    if use_ldmatrix or use_stmatrix:
        extra_notes.append(
            f"matrix insts: ldmatrix={use_ldmatrix}, "
            f"stmatrix={use_stmatrix}"
        )
    program = _shared_program(
        stores, loads, elem_bytes, use_stmatrix, use_ldmatrix
    )
    return program, extra_notes


def _try_matrix_staging(
    src: LinearLayout,
    dst: LinearLayout,
    dv: DistributedView,
    elem_bits: int,
    spec: GpuSpec,
):
    """A staging layout shaped so ldmatrix's tile divides the load map.

    Pins the Vec bits to the destination's low register bases and the
    first bank bits to its low lane bases (the ldmatrix row-segment
    structure), then lets the optimal-swizzle algorithm pick the rest.
    Returns ``None`` when the shape does not work out — the caller
    falls back to the unconstrained swizzle.
    """
    from repro.codegen.division import ldmatrix_applicable
    from repro.codegen.swizzle import memory_layout_from_bases
    from repro.f2.subspace import Subspace
    from repro.hardware.instructions import ldmatrix_tile

    tile = ldmatrix_tile(elem_bits)
    k = tile.in_dim_size_log2(REGISTER)
    b_reg = dv.images(REGISTER, include_zeros=False)
    b_thr = dv.images(LANE, include_zeros=False)
    if len(b_reg) < k or len(b_thr) < 2 or not dst.is_injective():
        return None
    # "Destination-natural" staging: the offset basis is the
    # destination's own basis images, tile bits first.  The load map
    # M^{-1} o D is then block-structured by construction, so the
    # ldmatrix tile divides it (Theorem 5.1).  Among the remaining
    # basis vectors, those outside the source's thread span fill the
    # bank bits to keep the *stores* conflict-free too.
    head = list(b_reg[:k]) + list(b_thr[:2])
    d = dst.total_out_bits()
    elem_bytes = max(1, elem_bits // 8)
    all_images = []
    for dim in (REGISTER, LANE, WARP):
        all_images.extend(dv.images(dim, include_zeros=False))
    rest = [p for p in all_images if p not in head]
    if len(head) + len(rest) != d:
        return None
    a_thr = set(
        x for x in src.basis_images_flat(LANE) if x
    )
    rest.sort(key=lambda p: (p in a_thr, p))
    _, b_bits, _ = offset_bit_budget(
        (1 << k) * elem_bytes, d - k, spec.bank_row_bytes
    )
    offset_bases = head + rest
    layout = memory_layout_from_bases(offset_bases, dst.out_dim_sizes())
    if not layout.is_invertible():
        return None
    seg_basis = tuple(offset_bases[k + b_bits:])
    plan = SwizzlePlan(
        memory_layout=layout,
        vec_basis=tuple(offset_bases[:k]),
        bank_basis=tuple(offset_bases[k: k + b_bits]),
        seg_basis=seg_basis,
        elem_bits=elem_bits,
        conflict_free=Subspace(
            d, list(offset_bases[:k]) + list(seg_basis)
        ).trivial_intersection(Subspace(d, sorted(a_thr))),
    )
    if spec.has_ldmatrix and ldmatrix_applicable(
        dst, plan.memory_layout, tile
    ):
        return plan
    if spec.has_stmatrix and ldmatrix_applicable(
        src, plan.memory_layout, tile
    ):
        return plan
    return None

