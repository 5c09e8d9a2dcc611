"""Optimal swizzling (Section 5.4 + Appendix 9.2).

Given source and destination distributed layouts, compute a shared
memory layout that (provably, Lemma 9.6) maximizes read/write
vectorization and minimizes bank conflicts for *both* the stores from
the source layout and the loads into the destination layout.

The shared memory offset space is structured as
``Vec (low bits) x Bank x Seg (high bits)``: Vec is the vectorized
subspace shared by both register files, Bank spans the 128-byte bank
sweep, and Seg indexes bank segments.  Bank conflicts happen exactly
when two threads touch the same bank in different segments — i.e. when
``span(S_Vec u S_Seg)`` meets ``span(L_Thr)`` non-trivially
(Lemma 9.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import cache as _cache
from repro.core.dims import LANE, OFFSET, REGISTER
from repro.core.errors import LayoutError
from repro.core.layout import LinearLayout
from repro.codegen.views import DistributedView
from repro.f2.bitvec import log2_int
from repro.f2.subspace import Subspace, reduce_to_basis


@dataclass(frozen=True)
class SwizzlePlan:
    """The output of the optimal-swizzling algorithm.

    ``memory_layout`` maps ``offset -> logical dims`` (Definition
    4.14-style); offset bit ``i`` has the basis image recorded in
    ``vec_basis + subword_basis + bank_basis + seg_basis`` (flattened
    logical positions).  ``vec_elems`` is the store/load vector width
    in elements; ``subword_basis`` fills the offset bits below 4-byte
    (bank-word) granularity when the element type is narrower than a
    bank — the "not enough vectorization" case of Lemma 9.4, where
    word sharing between threads replaces vectorization.
    """

    memory_layout: LinearLayout
    vec_basis: Tuple[int, ...]
    bank_basis: Tuple[int, ...]
    seg_basis: Tuple[int, ...]
    elem_bits: int
    conflict_free: bool
    subword_basis: Tuple[int, ...] = ()

    @property
    def vec_elems(self) -> int:
        """Store/load vector width in elements (2^|V|)."""
        return 1 << len(self.vec_basis)


def offset_bit_budget(
    vec_bytes: int, free_bits: int, bank_row_bytes: int
) -> Tuple[int, int, int]:
    """Split the offset bits above Vec into ``(sub-word, bank, seg)``.

    Sub-word bits: when the vectorized element is narrower than a
    4-byte bank word, the offset bits below word granularity do not
    select a bank.  Bank bits: vectorized words needed to sweep one
    bank row.  Segment bits take what is left of the ``free_bits``
    offset bits above Vec; when too few remain, bank bits shrink.
    """
    n_sub = 0
    while (vec_bytes << n_sub) < 4:
        n_sub += 1
    b_bits = max(
        0, log2_int(bank_row_bytes) - log2_int(max(4, vec_bytes))
    )
    s_bits = free_bits - n_sub - b_bits
    if s_bits < 0:
        b_bits = max(0, free_bits - n_sub)
        s_bits = 0
    return n_sub, b_bits, s_bits


def _flat_to_coords(
    flat: int, out_sizes: Dict[str, int]
) -> Tuple[int, ...]:
    """Split a row-major flat position into per-dim coords."""
    names = list(out_sizes)
    coords = {}
    for name in reversed(names):
        log = log2_int(out_sizes[name])
        coords[name] = flat & ((1 << log) - 1)
        flat >>= log
    return tuple(coords[name] for name in names)


def memory_layout_from_bases(
    offset_bases: Sequence[int], out_sizes: Dict[str, int]
) -> LinearLayout:
    """Build an offset->dims LinearLayout from flat basis images."""
    images = [_flat_to_coords(b, out_sizes) for b in offset_bases]
    return LinearLayout(
        {OFFSET: images}, dict(out_sizes), require_surjective=True
    )


def optimal_swizzled_layout(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    bank_row_bytes: int = 128,
    max_vector_bits: int = 128,
) -> SwizzlePlan:
    """Compute the conflict-minimizing shared layout for src -> dst.

    Follows the appendix algorithm exactly:

    1. ``V``: a basis of ``A_Reg n B_Reg`` capped at the platform's
       widest vector — the subspace both sides can vectorize over.
    2. ``A_Bank``/``B_Bank``: the thread bases minus the trailing
       bits already absorbed into 128-byte transactions.
    3. ``H``: pairs ``e_i ^ f_i`` of the differing thread bases — in
       the complement of both access patterns, hence conflict-free
       for reads *and* writes.
    4. ``C``: a complement basis of everything either side touches.
    5. ``Seg`` draws from ``H u C``; if short, conflicts are
       unavoidable and the remainder comes from ``A_Bank``.
    6. ``Bank`` completes the basis.

    The returned :class:`SwizzlePlan` is frozen and memoized on the
    canonical layout keys plus every parameter.
    """
    key = (
        "optimal_swizzle",
        src_layout.canonical_key(),
        dst_layout.canonical_key(),
        elem_bits,
        bank_row_bytes,
        max_vector_bits,
    )
    return _cache.cached(
        _cache.derivations,
        key,
        lambda: _optimal_swizzled_layout(
            src_layout,
            dst_layout,
            elem_bits,
            bank_row_bytes,
            max_vector_bits,
        ),
    )


def _optimal_swizzled_layout(
    src_layout: LinearLayout,
    dst_layout: LinearLayout,
    elem_bits: int,
    bank_row_bytes: int,
    max_vector_bits: int,
) -> SwizzlePlan:
    src = DistributedView(src_layout)
    dst = DistributedView(dst_layout)
    if dict(src_layout.out_dim_sizes()) != dict(dst_layout.out_dim_sizes()):
        raise LayoutError("src and dst must share a logical tensor")
    out_sizes = src_layout.out_dim_sizes()
    d = src_layout.total_out_bits()
    elem_bytes = max(1, elem_bits // 8)

    a_reg = src.images(REGISTER, include_zeros=False)
    b_reg = dst.images(REGISTER, include_zeros=False)
    a_thr = src.images(LANE, include_zeros=False)
    b_thr = dst.images(LANE, include_zeros=False)

    # 1. Vectorization subspace V.
    shared_regs = sorted(set(a_reg) & set(b_reg))
    v_max = 0
    while (1 << (v_max + 1)) * elem_bits <= max_vector_bits:
        v_max += 1
    vec = list(shared_regs[:v_max])
    v = len(vec)

    # Sub-word bits: filling them with H-pairs (below) lets threads
    # of *both* layouts share words (free broadcast/merge) instead of
    # conflicting — the generalization of the algorithm to Lemma
    # 9.4's "not enough vectorization" case.
    vec_bytes = (1 << v) * elem_bytes
    n_sub, b_bits, s_bits = offset_bit_budget(
        vec_bytes, d - v, bank_row_bytes
    )

    # 2. Thread bases relevant to bank selection.  Vectors beyond the
    # 128-byte transaction split do not influence conflicts.
    drop = log2_int(max(1, vec_bytes // 4))
    a_bank = a_thr[: max(0, len(a_thr) - drop)] if drop else list(a_thr)
    b_bank = b_thr[: max(0, len(b_thr) - drop)] if drop else list(b_thr)

    # 3. H: pair the differing thread bases.
    e_set = sorted(set(a_bank) - set(b_bank))
    f_set = sorted(set(b_bank) - set(a_bank))
    if len(e_set) > len(f_set):
        e_set, f_set = f_set, e_set
    h_set = [e ^ f for e, f in zip(e_set, f_set)]

    # Fill sub-word bits, preferring H-pairs (word sharing on both
    # sides), then shared registers, then whatever completes.
    subword: List[int] = []
    if n_sub:
        pool = reduce_to_basis(
            vec + h_set + sorted(set(a_reg) & set(b_reg))
            + [1 << i for i in range(d)]
        )[v:]
        subword = list(pool[:n_sub])
        h_set = [h for h in h_set if h not in subword]

    # 4. C: complement of span(V u A_Bank u B_Bank).
    touched = Subspace(d, vec + a_bank + b_bank)
    c_set = list(touched.complement().basis)

    # 5. Segment bits from H u C (conflict-free), padding from A_Bank.
    low = vec + subword
    seg_pool = reduce_to_basis(low + h_set + c_set)[len(low):]
    conflict_free = len(seg_pool) >= s_bits
    seg: List[int] = list(seg_pool[:s_bits])
    if len(seg) < s_bits:
        filler = reduce_to_basis(
            low + seg + a_bank + b_bank + c_set
            + [1 << i for i in range(d)]
        )[len(low) + len(seg):]
        seg.extend(filler[: s_bits - len(seg)])
    if len(seg) < s_bits:  # pragma: no cover - basis always completes
        raise LayoutError("failed to fill segment bits")

    # 6. Bank bits complete the basis of F2^d.  Preferring the
    # destination's thread bases makes the load map divide the
    # ldmatrix tile when one exists (Section 5.3): offset bank bits
    # then coincide with the loading lanes' low bits.
    bank_pool = reduce_to_basis(
        low + seg + b_bank + a_bank + c_set
        + [1 << i for i in range(d)]
    )[len(low) + len(seg):]
    bank = list(bank_pool[:b_bits])
    if len(bank) < b_bits:  # pragma: no cover
        raise LayoutError("failed to complete bank bits")

    offset_bases = vec + subword + bank + seg
    layout = memory_layout_from_bases(offset_bases, out_sizes)
    if not layout.is_invertible():  # pragma: no cover - by construction
        raise LayoutError("swizzled layout is not invertible")
    return SwizzlePlan(
        memory_layout=layout,
        vec_basis=tuple(vec),
        subword_basis=tuple(subword),
        bank_basis=tuple(bank),
        seg_basis=tuple(seg),
        elem_bits=elem_bits,
        conflict_free=conflict_free,
    )
