"""JSON encoding of warp programs.

Programs carry nothing but plain operands (ints, strings, nested
tuples, int arrays) plus the occasional :class:`LinearLayout` or
shared access table, so encoding is a mechanical field walk: tuples
and arrays become (nested) lists, layouts become their ``to_dict``
form tagged with ``"__layout__"``, access tables their nested
``(base, regs)`` lists tagged with ``"__accesses__"``, and the opcode
names the instruction class.  ``scratch`` (backend memoization) is
deliberately not encoded — it is derived state.
:meth:`~repro.engine.engine.CompiledKernel.summary` encodes its
programs through here; the decoder the round-trip tests check this
encoder with is ``tests/program_decoder.py``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.codegen.access import SharedAccesses
from repro.core.layout import LinearLayout
from repro.program.ir import WarpProgram, instr_fields


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


def instr_to_dict(instr) -> Dict[str, object]:
    """One instruction as a JSON-safe dict (opcode + operands)."""
    out: Dict[str, object] = {"op": instr.opcode.value}
    for name, value in instr_fields(instr).items():
        out[name] = _encode_value(value)
    return out


def program_to_dict(program: WarpProgram) -> Dict[str, object]:
    """A warp program as a JSON-safe dict."""
    return {
        "result": program.result,
        "label": program.label,
        "instrs": [instr_to_dict(i) for i in program.instrs],
    }


__all__ = ["instr_to_dict", "program_to_dict"]
