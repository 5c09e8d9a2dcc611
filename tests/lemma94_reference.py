"""Lemma 9.4's closed-form wavefront count, the oracle of the pricer.

Given a shared layout structured as ``Vec x Bank x Seg`` and a
distributed layout accessing it, the number of wavefronts per warp
access is ``n * c`` where ``c = |span(S_Vec u S_Seg) n span(L_Thr)|``
and ``n`` is the number of banks each vectorized element covers.  The
pricer (:mod:`repro.gpusim.memory`) counts the same quantity on the
plan's actual addresses; ``tests/test_codegen_swizzle.py`` holds the
two to agreement.  Only tests import it.
"""

from __future__ import annotations

from repro.codegen.swizzle import SwizzlePlan
from repro.core.dims import LANE
from repro.core.layout import LinearLayout
from repro.f2.subspace import Subspace


def access_wavefronts(plan: SwizzlePlan, dist_layout: LinearLayout) -> int:
    """Wavefronts per warp-wide vectorized access (Lemma 9.4).

    ``c`` counts the coset collisions between the segment structure
    and the accessing threads; each vectorized element spanning ``n``
    banks multiplies the cost (128-byte transaction splitting).
    """
    d = dist_layout.total_out_bits()
    elem_bytes = max(1, plan.elem_bits // 8)
    low = list(plan.vec_basis) + list(plan.subword_basis)
    thr = Subspace(
        d, [x for x in dist_layout.basis_images_flat(LANE) if x]
    )
    # Threads whose offsets differ only below word granularity share a
    # word (broadcast/merge) — subtract those from the collision count.
    c_all = Subspace(d, low + list(plan.seg_basis)).intersect(thr).rank
    c_free = Subspace(d, low).intersect(thr).rank
    c = 1 << (c_all - c_free)
    n = max(1, (plan.vec_elems * elem_bytes) // 4)
    return n * c


def conversion_wavefronts(
    plan: SwizzlePlan, src_layout: LinearLayout, dst_layout: LinearLayout
) -> dict:
    """Write and read wavefront counts of a conversion through shared
    memory staged with ``plan``."""
    return {
        "write": access_wavefronts(plan, src_layout),
        "read": access_wavefronts(plan, dst_layout),
    }
