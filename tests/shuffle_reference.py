"""Per-element reference for the warp-shuffle planner (Section 5.4).

:func:`repro.codegen.shuffles.plan_warp_shuffle` builds every round of
the V / I / E / F / G / R construction at once from the layouts'
owner tables (:func:`repro.codegen.views.owner_table`).  This module
keeps the original construction, one ``DistributedView`` lookup per
coset element and register, as the differential-testing oracle,
emitting the same :class:`~repro.program.ir.Shfl` rounds and fan-out
:class:`~repro.program.ir.MovR`.  Only tests import it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.codegen.shuffles import (
    ShufflePlanError,
    _extend,
    shuffle_preconditions,
)
from repro.codegen.views import DistributedView
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.f2.bitvec import iter_set_bits
from repro.program.ir import MovR, R_OUT, Shfl
from tests.layout_reference import flat_of, owner_of


def _span_elements(basis: List[int]) -> List[int]:
    out = []
    for mask in range(1 << len(basis)):
        v = 0
        for idx in iter_set_bits(mask):
            v ^= basis[idx]
        out.append(v)
    return out


def _dedupe_registers(layout: LinearLayout) -> Tuple[
    LinearLayout, List[int]
]:
    """Strip free register bits; returns (quotient layout, keep bits)."""
    free = layout.free_variable_masks().get(REGISTER, 0)
    n_bits = layout.in_dim_size_log2(REGISTER)
    keep = [i for i in range(n_bits) if not (free >> i) & 1]
    if len(keep) == n_bits:
        return layout, keep
    bases = layout.bases
    bases[REGISTER] = [bases[REGISTER][i] for i in keep]
    quotient = LinearLayout(
        bases, layout.out_dim_sizes(), require_surjective=False
    )
    return quotient, keep


def _reg_of(view: DistributedView, flat: int) -> int:
    """Canonical register index owning a flattened position."""
    return owner_of(view, flat).get(REGISTER, 0)


def _lane_of(view: DistributedView, flat: int) -> int:
    """Canonical lane index owning a flattened position."""
    return owner_of(view, flat).get(LANE, 0)


def _real_reg(keep: List[int], quotient: int) -> int:
    """Map a quotient register index back to a canonical real index."""
    real = 0
    for j, bit in enumerate(keep):
        if (quotient >> j) & 1:
            real |= 1 << bit
    return real


def plan_warp_shuffle(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    shuffle_bits: int = 32,
) -> List[object]:
    """The shuffle plan, built one coset element at a time (uncached)."""
    full_src, full_dst = src_layout, dst_layout
    pre_ok, why = shuffle_preconditions(
        DistributedView(full_src), DistributedView(full_dst)
    )
    if not pre_ok:
        raise ShufflePlanError(why)
    src_layout, keep_src = _dedupe_registers(src_layout)
    dst_layout, keep_dst = _dedupe_registers(dst_layout)
    src = DistributedView(src_layout)
    dst = DistributedView(dst_layout)

    a_reg = src.images(REGISTER, include_zeros=False)
    b_reg = dst.images(REGISTER, include_zeros=False)
    a_thr = src.images(LANE, include_zeros=False)
    b_thr = dst.images(LANE, include_zeros=False)
    if len(a_reg) != len(b_reg) or len(a_thr) != len(b_thr):
        raise ShufflePlanError("register/lane rank mismatch")

    shared_regs = sorted(set(a_reg) & set(b_reg))
    max_v = 0
    while (1 << (max_v + 1)) * elem_bits <= shuffle_bits:
        max_v += 1
    v_basis = shared_regs[:max_v]

    i_set = sorted(set(a_thr) & set(b_thr))
    e_set = sorted(set(a_thr) - set(i_set))
    f_set = sorted(set(b_thr) - set(i_set))
    if len(e_set) != len(f_set):
        raise ShufflePlanError("|E| != |F| without broadcasting")
    g_set = [e ^ f for e, f in zip(e_set, f_set)]

    warp_rank = len(a_reg) + len(a_thr)
    candidates = sorted(set(a_reg) - set(v_basis)) + sorted(a_thr)
    r_basis = _extend(warp_rank, v_basis + i_set + g_set, candidates)

    vec = 1 << len(v_basis)
    v_span = _span_elements(v_basis)
    ig_span = _span_elements(i_set + g_set)
    num_lanes = 1 << len(a_thr)
    insts = max(1, (vec * elem_bits + shuffle_bits - 1) // shuffle_bits)

    rounds: List[Shfl] = []
    for rnd in range(1 << len(r_basis)):
        base = 0
        for idx in iter_set_bits(rnd):
            base ^= r_basis[idx]
        src_lane_of = [-1] * num_lanes
        send_regs: List[Tuple[int, ...]] = [()] * num_lanes
        recv_regs: List[Tuple[int, ...]] = [()] * num_lanes
        for s in ig_span:
            p0 = base ^ s
            s_lane = _lane_of(src, p0)
            d_lane = _lane_of(dst, p0)
            s_regs = tuple(
                _real_reg(keep_src, _reg_of(src, p0 ^ v)) for v in v_span
            )
            d_regs = tuple(
                _real_reg(keep_dst, _reg_of(dst, p0 ^ v)) for v in v_span
            )
            if src_lane_of[d_lane] != -1:
                raise ShufflePlanError(
                    "coset visits a destination lane twice"
                )
            if send_regs[s_lane]:
                raise ShufflePlanError("coset visits a source lane twice")
            src_lane_of[d_lane] = s_lane
            send_regs[s_lane] = s_regs
            recv_regs[d_lane] = d_regs
        if -1 in src_lane_of:
            raise ShufflePlanError("coset misses a lane")
        rounds.append(
            Shfl(
                src_lane=tuple(src_lane_of),
                send_regs=tuple(send_regs),
                recv_regs=tuple(recv_regs),
                warps=full_src.in_dim_size(WARP),
                insts=insts,
            )
        )
    instrs: List[object] = list(rounds)
    n_dst_bits = full_dst.in_dim_size_log2(REGISTER)
    if len(keep_dst) < n_dst_bits:
        free_mask = sum(
            1 << i for i in range(n_dst_bits) if i not in keep_dst
        )
        table = tuple(
            r & ~free_mask for r in range(1 << n_dst_bits)
        )
        instrs.append(
            MovR(
                dst_to_src=table,
                lanes=full_dst.in_dim_size(LANE),
                warps=full_dst.in_dim_size(WARP),
                src=R_OUT,
                dst=R_OUT,
            )
        )
    return instrs


def register_permutation(src: LinearLayout, dst: LinearLayout) -> MovR:
    """The move ``out[r] <- in[table[r]]``, one lookup per register."""
    sv, dv = DistributedView(src), DistributedView(dst)
    table = []
    for r in range(dst.in_dim_size(REGISTER)):
        p = flat_of(dv, {REGISTER: r})
        table.append(_reg_of(sv, p))
    return MovR(
        dst_to_src=tuple(table),
        lanes=dst.in_dim_size(LANE),
        warps=dst.in_dim_size(WARP),
    )
