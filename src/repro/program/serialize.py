"""JSON round-tripping of warp programs.

Programs carry nothing but plain operands (ints, strings, nested
tuples, int arrays) plus the occasional :class:`LinearLayout` or
shared access table, so serialization is a mechanical field walk:
tuples and arrays become (nested) lists, layouts become their
``to_dict`` form tagged with ``"__layout__"``, access tables their
nested ``(base, regs)`` lists tagged with ``"__accesses__"``, and the
opcode names the instruction class on the way back in.  ``scratch``
(backend memoization) is deliberately not serialized — it is derived
state.
"""

from __future__ import annotations

import json
from typing import Dict, List

import numpy as np

from repro.codegen.access import SharedAccesses
from repro.core.layout import LinearLayout
from repro.program.ir import (
    Opcode,
    WarpProgram,
    instr_class,
    instr_fields,
)


def _encode_value(value):
    if isinstance(value, LinearLayout):
        return {"__layout__": value.to_dict()}
    if isinstance(value, SharedAccesses):
        return {"__accesses__": _encode_value(value.to_tuples())}
    if isinstance(value, tuple):
        return [_encode_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _decode_value(value):
    if isinstance(value, dict) and "__layout__" in value:
        return LinearLayout.from_dict(value["__layout__"])
    if isinstance(value, dict) and "__accesses__" in value:
        return SharedAccesses.from_tuples(_decode_value(value["__accesses__"]))
    if isinstance(value, list):
        return tuple(_decode_value(v) for v in value)
    return value


def instr_to_dict(instr) -> Dict[str, object]:
    """One instruction as a JSON-safe dict (opcode + operands)."""
    out: Dict[str, object] = {"op": instr.opcode.value}
    for name, value in instr_fields(instr).items():
        out[name] = _encode_value(value)
    return out


def instr_from_dict(data: Dict[str, object]):
    """Rebuild one instruction from :func:`instr_to_dict` output."""
    cls = instr_class(Opcode(data["op"]))
    kwargs = {
        name: _decode_value(value)
        for name, value in data.items()
        if name != "op"
    }
    return cls(**kwargs)


def program_to_dict(program: WarpProgram) -> Dict[str, object]:
    """A warp program as a JSON-safe dict."""
    return {
        "result": program.result,
        "label": program.label,
        "instrs": [instr_to_dict(i) for i in program.instrs],
    }


def program_from_dict(data: Dict[str, object]) -> WarpProgram:
    """Rebuild a warp program from :func:`program_to_dict` output."""
    instrs: List = [instr_from_dict(d) for d in data["instrs"]]
    return WarpProgram(
        tuple(instrs),
        result=data.get("result", "out"),
        label=data.get("label", ""),
    )


def program_to_json(program: WarpProgram) -> str:
    """A warp program as a JSON string."""
    return json.dumps(program_to_dict(program))


def program_from_json(text: str) -> WarpProgram:
    """Rebuild a warp program from :func:`program_to_json` output."""
    return program_from_dict(json.loads(text))


__all__ = [
    "instr_from_dict",
    "instr_to_dict",
    "program_from_dict",
    "program_from_json",
    "program_to_dict",
    "program_to_json",
]
