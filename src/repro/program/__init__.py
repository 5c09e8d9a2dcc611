"""The unified warp-program IR (execution = pricing = tracing).

One instruction stream for everything the backend does with a lowered
layout operation: the planners of :mod:`repro.codegen` produce it
(conversions, and both gather lowerings of :mod:`repro.codegen.gather`),
the NumPy-vectorized interpreter executes it
(:func:`repro.program.interp.run`), the cost model prices it
(:func:`repro.gpusim.opcost.price_program`), and JSON round-trips it
(:mod:`repro.program.serialize`).
"""

from repro.program.ir import (
    Bar,
    GatherLds,
    GatherShfl,
    GatherSts,
    Lds,
    MovR,
    Opcode,
    R_IDX,
    R_IN,
    R_OUT,
    Shfl,
    Sts,
    WarpProgram,
    instr_fields,
)
from repro.program.lower import lower_plan
from repro.program.serialize import (
    program_to_dict,
)

__all__ = [
    "Bar",
    "GatherLds",
    "GatherShfl",
    "GatherSts",
    "Lds",
    "MovR",
    "Opcode",
    "R_IDX",
    "R_IN",
    "R_OUT",
    "Shfl",
    "Sts",
    "WarpProgram",
    "instr_fields",
    "lower_plan",
    "program_to_dict",
]
