"""The decoder of ``repro.program.serialize``'s JSON encoding.

The compiler only encodes programs (``CompiledKernel.summary``); the
round-trip tests rebuild them with these functions to check that the
encoding keeps every operand.  Only tests import it.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.codegen.access import SharedAccesses
from repro.core.layout import LinearLayout
from repro.program.ir import (
    Bar,
    GatherLds,
    GatherShfl,
    GatherSts,
    Lds,
    MovR,
    Opcode,
    Shfl,
    Sts,
    WarpProgram,
)
from repro.program.serialize import program_to_dict

_CLASSES = {
    cls.opcode: cls
    for cls in (Shfl, MovR, Sts, Lds, Bar, GatherShfl, GatherSts, GatherLds)
}


def _decode_value(value):
    if isinstance(value, dict) and "__layout__" in value:
        return LinearLayout.from_dict(value["__layout__"])
    if isinstance(value, dict) and "__accesses__" in value:
        return SharedAccesses.from_tuples(_decode_value(value["__accesses__"]))
    if isinstance(value, list):
        return tuple(_decode_value(v) for v in value)
    return value


def instr_from_dict(data: Dict[str, object]):
    """Rebuild one instruction from ``instr_to_dict`` output."""
    cls = _CLASSES[Opcode(data["op"])]
    return cls(**{k: _decode_value(v) for k, v in data.items() if k != "op"})


def program_from_dict(data: Dict[str, object]) -> WarpProgram:
    """Rebuild a warp program from ``program_to_dict`` output."""
    return WarpProgram(
        tuple(instr_from_dict(d) for d in data["instrs"]),
        result=data.get("result", "out"),
        label=data.get("label", ""),
    )


def round_trip(program: WarpProgram) -> WarpProgram:
    """``program`` through JSON text and back."""
    return program_from_dict(json.loads(json.dumps(program_to_dict(program))))
