"""Lowering: conversion plans -> fresh warp programs.

The planners of :mod:`repro.codegen` emit instructions directly, so
every plan already carries its program; :func:`lower_plan` copies one
without the interpreter's cached preparations.
"""

from __future__ import annotations

from repro.program.ir import WarpProgram


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


__all__ = ["lower_plan"]
