"""Lowering of ``tl.gather`` (Section 5.5): two programs and a choice.

When every element along the gather axis lives within one warp
(``L_Wrp^axis`` all zero), the gather can be served by warp shuffles
instead of a shared-memory round trip.  Each output position costs
``n = 2^{|L_Thr^axis|}`` shuffle rounds: in round ``i`` every lane
broadcasts its ``i``-th slice along the axis and keeps the incoming
value only if the (data-dependent) source register matches.  The
other lowering stages the source tensor through shared memory and
reads each gathered element back with a scalar load.

:func:`plan_gather` picks the cheaper program by
:func:`~repro.gpusim.opcost.program_price`, as
:func:`~repro.codegen.conversion.plan_conversion` picks among its
staging candidates; the programs and the choice are memoized in
:data:`repro.cache.plans`.  The programs are static: the simulator
resolves the data-dependent register and lane choices when it
executes with concrete index values.
"""

from __future__ import annotations

from repro import cache as _cache
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.hardware.spec import GpuSpec


class GatherPlanError(ValueError):
    """The gather cannot use the warp-shuffle fast path."""


def axis_component_bits(layout: LinearLayout, in_dim: str, axis: int) -> int:
    """How many ``in_dim`` basis vectors hit output dim ``axis``."""
    count = 0
    for img in layout.bases.get(in_dim, []):
        if img[axis] != 0:
            count += 1
    return count


def can_gather_with_shuffles(layout: LinearLayout, axis: int) -> bool:
    """The Section 5.5 test: all of ``L_Wrp^axis`` are zero."""
    return axis_component_bits(layout, WARP, axis) == 0


def gather_shuffle_program(layout: LinearLayout, axis: int):
    """The warp-shuffle gather as a one-instruction program (memoized).

    It issues ``2^{|L_Thr^axis|}`` rounds per register slot.  Raises
    :class:`GatherPlanError` if ``axis`` is out of range or crosses
    warps.
    """
    return _cache.cached(
        _cache.plans,
        ("program", "gather_shuffle", layout.canonical_key(), axis),
        lambda: _shuffle_program(layout, axis),
    )


def _shuffle_program(layout: LinearLayout, axis: int):
    # Deferred, like every repro.program import in codegen: the
    # program package imports gpusim, which imports this module.
    from repro.program.ir import GatherShfl, WarpProgram

    if not 0 <= axis < len(layout.out_dims):
        raise GatherPlanError(f"axis {axis} out of range")
    if not can_gather_with_shuffles(layout, axis):
        raise GatherPlanError(
            "gather axis is distributed across warps; shared memory "
            "is required"
        )
    rounds = 1 << axis_component_bits(layout, LANE, axis)
    shuffle = GatherShfl(
        layout=layout,
        axis=axis,
        shuffle_count=rounds * layout.in_dim_size(REGISTER),
    )
    return WarpProgram((shuffle,), label="gather-shuffle")


def gather_shared_program(layout: LinearLayout, axis: int):
    """The shared-memory gather: stage, barrier, gathered loads
    (memoized)."""
    return _cache.cached(
        _cache.plans,
        ("program", "gather_shared", layout.canonical_key(), axis),
        lambda: _shared_program(layout, axis),
    )


def _shared_program(layout: LinearLayout, axis: int):
    from repro.program.ir import Bar, GatherLds, GatherSts, WarpProgram

    return WarpProgram(
        (GatherSts(layout=layout), Bar(), GatherLds(layout=layout, axis=axis)),
        label="gather-shared",
    )


def plan_gather(
    layout: LinearLayout, axis: int, spec: GpuSpec, allow_shuffle: bool
):
    """The cheaper gather program on ``spec`` (memoized).

    The shuffle program is a candidate when ``allow_shuffle`` holds
    and the gather axis stays within a warp; past the Figure 8
    crossover its rounds outgrow the shared round trip.  A tie goes
    to the shuffles.
    """
    return _cache.cached(
        _cache.plans,
        ("plan_gather", layout.canonical_key(), axis, spec, allow_shuffle),
        lambda: _choose_gather(layout, axis, spec, allow_shuffle),
    )


def _choose_gather(
    layout: LinearLayout, axis: int, spec: GpuSpec, allow_shuffle: bool
):
    # Deferred: gpusim imports codegen.
    from repro.gpusim.opcost import program_price

    shared = gather_shared_program(layout, axis)
    if not (allow_shuffle and can_gather_with_shuffles(layout, axis)):
        return shared
    shuffle = gather_shuffle_program(layout, axis)
    if program_price(shuffle, spec)[1] <= program_price(shared, spec)[1]:
        return shuffle
    return shared
