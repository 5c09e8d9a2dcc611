"""Lowering: gather plans and register permutes -> warp programs.

Conversion plans carry their own program (the planners of
:mod:`repro.codegen` emit instructions directly); this module builds
the programs of the other producers — the two gather flavors and the
standalone register permute.
"""

from __future__ import annotations

from repro.core.dims import LANE, WARP
from repro.core.layout import LinearLayout
from repro.program.ir import (
    Bar,
    GatherLds,
    GatherShfl,
    GatherSts,
    MovR,
    R_IN,
    R_OUT,
    WarpProgram,
)


def lower_plan(plan) -> WarpProgram:
    """A fresh program with a conversion plan's instructions.

    The copy has empty :attr:`~repro.program.ir.WarpProgram.scratch`,
    so a caller that runs it pays every interpreter preparation cold,
    as if the plan had never executed.
    """
    program = plan.program
    return WarpProgram(
        program.instrs, result=program.result, label=program.label
    )


def lower_gather_shuffle(layout: LinearLayout, axis: int) -> WarpProgram:
    """The warp-shuffle gather as a one-instruction program."""
    from repro.codegen.gather import plan_gather

    plan = plan_gather(layout, axis)
    return WarpProgram(
        (
            GatherShfl(
                layout=layout,
                axis=axis,
                shuffle_count=plan.total_shuffles,
            ),
        ),
        label="gather-shuffle",
    )


def lower_gather_shared(
    layout: LinearLayout, axis: int, elem_bytes: int = 4
) -> WarpProgram:
    """The legacy shared-memory gather: stage, barrier, gathered loads."""
    return WarpProgram(
        (
            GatherSts(layout=layout, elem_bytes=elem_bytes),
            Bar(),
            GatherLds(layout=layout, axis=axis, elem_bytes=elem_bytes),
        ),
        label="gather-shared",
    )


def lower_register_permute(
    dst_to_src,
    layout: LinearLayout,
    src: str = R_IN,
    dst: str = R_OUT,
) -> WarpProgram:
    """A standalone register permute over a layout's lane/warp extent.

    The lowering used by producers whose whole plan is intra-thread
    data movement (the mxfp operand pre-shuffle).
    """
    return WarpProgram(
        (
            MovR(
                dst_to_src=tuple(dst_to_src),
                lanes=layout.in_dim_size(LANE),
                warps=layout.in_dim_size(WARP),
                src=src,
                dst=dst,
            ),
        ),
        label="register-permute",
    )


__all__ = [
    "lower_gather_shared",
    "lower_gather_shuffle",
    "lower_plan",
    "lower_register_permute",
]
