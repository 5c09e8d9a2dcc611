"""Intra-warp layout conversion via warp shuffles (Section 5.4).

Implements the V / I / E / F / G / R construction: pick the vectorized
register subspace ``V`` shared by source and destination, pair up the
differing thread bits into ``G`` (so each affine coset crosses every
source lane and every destination lane exactly once), extend to a
basis with ``R``, and emit one shuffle round per coset representative
``R(i)`` — exactly the Figure 4 procedure.  Every round is built at
once, by gathering the coset positions through the layouts' owner
tables (:func:`repro.codegen.views.owner_table`), and emitted as
warp-program instructions (:mod:`repro.program.ir`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro import cache as _cache
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.codegen.views import DistributedView, owner_table
from repro.f2.bitvec import span_table
from repro.f2.solve import XorBasis


class ShufflePlanError(ValueError):
    """The pair of layouts is outside the warp-shuffle fast path."""


def _first_repeat(values: np.ndarray) -> np.ndarray:
    """Per row, the first column repeating an earlier value of its row.

    Rows without a repeat get the row length.
    """
    order = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, order, axis=1)
    repeat = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(
        repeat, order[:, 1:], ranked[:, 1:] == ranked[:, :-1], axis=1
    )
    return np.where(
        repeat.any(axis=1), repeat.argmax(axis=1), values.shape[1]
    )


def _extend(
    rank_target: int, partial: List[int], candidates: List[int]
) -> List[int]:
    """Extend ``partial`` to rank ``rank_target`` using ``candidates``."""
    basis = XorBasis()
    if not all(basis.add(v) for v in partial):
        raise ShufflePlanError("V/I/G vectors are not independent")
    added = []
    for v in candidates:
        if len(basis) >= rank_target:
            break
        if basis.add(v):
            added.append(v)
    if len(basis) < rank_target:
        raise ShufflePlanError("could not extend shuffle basis")
    return added


def shuffle_preconditions(
    src: DistributedView, dst: DistributedView
) -> Tuple[bool, str]:
    """Check whether the warp-shuffle path applies.

    Requires matching warp components (so no inter-warp movement,
    Section 5.4: "(B^{-1}A)_Wrp is the identity") and no *lane*
    broadcasting.  Register broadcasting is handled by converting the
    deduplicated quotient and replicating locally afterwards — an
    extension beyond the paper's simplifying assumption.
    """
    if src.images(WARP) != dst.images(WARP):
        return False, "warp components differ (inter-warp movement)"
    for view, name in ((src, "src"), (dst, "dst")):
        if view.has_broadcasting(LANE):
            return False, f"{name} layout broadcasts across lanes"
    if src.images(LANE, include_zeros=False) and not dst.images(
        LANE, include_zeros=False
    ):
        return False, "lane rank mismatch"
    return True, ""


def plan_warp_shuffle(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    shuffle_bits: int = 32,
) -> List[object]:
    """Build the shuffle plan converting ``src`` to ``dst``.

    Returns a list of :class:`~repro.program.ir.Shfl` rounds reading
    ``in`` and writing ``out``, optionally followed by one ``out -> out``
    :class:`~repro.program.ir.MovR` that fans received values out to
    the destination's broadcast register replicas.  Raises
    :class:`ShufflePlanError` when the preconditions of Section 5.4 do
    not hold; the caller then falls back to the shared memory path.

    Both outcomes — the instructions and the planner rejection — are
    memoized on the canonical layout keys, so a hot conversion pays
    the coset enumeration once.
    """
    key = (
        "warp_shuffle",
        src_layout.canonical_key(),
        dst_layout.canonical_key(),
        elem_bits,
        shuffle_bits,
    )

    def compute() -> Tuple[str, object]:
        try:
            return "ok", tuple(
                _plan_warp_shuffle(
                    src_layout, dst_layout, elem_bits, shuffle_bits
                )
            )
        except ShufflePlanError as exc:
            return "err", str(exc)

    status, payload = _cache.cached(_cache.derivations, key, compute)
    if status == "err":
        raise ShufflePlanError(payload)
    return list(payload)


def _plan_warp_shuffle(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    shuffle_bits: int,
) -> List[object]:
    """Every round of the construction at once, from owner tables.

    Round ``r`` moves the coset ``span(R)[r] ^ span(I u G)``, each
    element carrying its ``^ span(V)`` register vector.  Lanes and
    registers are gathered from the layouts' :func:`owner_table`;
    the canonical owner has its broadcast register bits at zero, so
    the registers come out already mapped from the deduplicated
    quotient back to real indices.  Each round's operands are row views
    of the read-only ``(rounds x lanes [x vec])`` tables.
    """
    from repro.program.ir import MovR, R_OUT, Shfl

    src = DistributedView(src_layout)
    dst = DistributedView(dst_layout)
    pre_ok, why = shuffle_preconditions(src, dst)
    if not pre_ok:
        raise ShufflePlanError(why)

    # Free (broadcast) register bits have zero images; the planner
    # works on the quotient spanned by the others.
    a_reg = src.images(REGISTER, include_zeros=False)
    b_reg = dst.images(REGISTER, include_zeros=False)
    a_thr = src.images(LANE, include_zeros=False)
    b_thr = dst.images(LANE, include_zeros=False)
    if len(a_reg) != len(b_reg) or len(a_thr) != len(b_thr):
        raise ShufflePlanError("register/lane rank mismatch")

    # V: the vectorized subspace, capped at the shuffle payload width.
    shared_regs = sorted(set(a_reg) & set(b_reg))
    max_v = 0
    while (1 << (max_v + 1)) * elem_bits <= shuffle_bits:
        max_v += 1
    v_basis = shared_regs[:max_v]

    # I / E / F / G: thread-bit bookkeeping.
    i_set = sorted(set(a_thr) & set(b_thr))
    e_set = sorted(set(a_thr) - set(i_set))
    f_set = sorted(set(b_thr) - set(i_set))
    if len(e_set) != len(f_set):  # pragma: no cover - ranks equal above
        raise ShufflePlanError("|E| != |F| without broadcasting")
    g_set = [e ^ f for e, f in zip(e_set, f_set)]

    # R: extend V u I u G to a basis of the per-warp subspace.
    warp_rank = len(a_reg) + len(a_thr)
    candidates = sorted(set(a_reg) - set(v_basis)) + sorted(a_thr)
    r_basis = _extend(warp_rank, v_basis + i_set + g_set, candidates)

    vec = 1 << len(v_basis)
    num_lanes = 1 << len(a_thr)
    insts = max(1, (vec * elem_bits + shuffle_bits - 1) // shuffle_bits)

    # heads[r, s]: coset element s of round r; pos adds the V vector.
    heads = span_table(r_basis)[:, None] ^ span_table(i_set + g_set)[None, :]
    pos = heads[:, :, None] ^ span_table(v_basis)
    src_owner = owner_table(src_layout)
    dst_owner = owner_table(dst_layout)
    s_lane = src_owner[heads, 1]
    d_lane = dst_owner[heads, 1]

    # The first failing round raises; within it, the first element to
    # revisit a lane, the destination checked before the source.
    per_round = heads.shape[1]
    d_first = _first_repeat(d_lane)
    s_first = _first_repeat(s_lane)
    bad = (d_first < per_round) | (s_first < per_round)
    if per_round < num_lanes:  # every round misses a lane
        bad[:] = True
    if bad.any():
        r = int(bad.argmax())
        if d_first[r] < per_round and d_first[r] <= s_first[r]:
            raise ShufflePlanError("coset visits a destination lane twice")
        if s_first[r] < per_round:
            raise ShufflePlanError("coset visits a source lane twice")
        raise ShufflePlanError("coset misses a lane")

    # No lane repeats and one element per lane: scatter by lane.
    rows = np.arange(heads.shape[0])[:, None]
    src_lane = np.empty((heads.shape[0], num_lanes), dtype=np.int64)
    send_regs = np.empty((heads.shape[0], num_lanes, vec), dtype=np.int64)
    recv_regs = np.empty_like(send_regs)
    src_lane[rows, d_lane] = s_lane
    send_regs[rows, s_lane] = src_owner[pos, 0]
    recv_regs[rows, d_lane] = dst_owner[pos, 0]
    # Read-only, so each round's Shfl keeps its row views uncopied.
    for table in (src_lane, send_regs, recv_regs):
        table.flags.writeable = False
    warps = src_layout.in_dim_size(WARP)
    instrs: List[object] = [
        Shfl(src_lane[r], send_regs[r], recv_regs[r], warps, insts)
        for r in range(heads.shape[0])
    ]
    n_dst_bits = dst_layout.in_dim_size_log2(REGISTER)
    free_mask = sum(
        1 << i for i, img in enumerate(dst.images(REGISTER)) if not img
    )
    if free_mask:
        # Fan the canonical values out to every broadcast replica.
        table = tuple(r & ~free_mask for r in range(1 << n_dst_bits))
        instrs.append(
            MovR(
                dst_to_src=table,
                lanes=dst_layout.in_dim_size(LANE),
                warps=dst_layout.in_dim_size(WARP),
                src=R_OUT,
                dst=R_OUT,
            )
        )
    return instrs
