"""Lowering: gather plans -> warp programs.

Conversion plans carry their own program (the planners of
:mod:`repro.codegen` emit instructions directly); this module builds
the programs of the two gather flavors.
"""

from __future__ import annotations

from repro.core.layout import LinearLayout
from repro.program.ir import (
    Bar,
    GatherLds,
    GatherShfl,
    GatherSts,
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


__all__ = [
    "lower_gather_shared",
    "lower_gather_shuffle",
    "lower_plan",
]
