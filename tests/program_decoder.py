"""The decoder of ``repro.program.serialize``'s JSON encoding.

The compiler only encodes programs (``CompiledKernel.summary``); the
round-trip tests rebuild them with these functions to check that the
encoding keeps every operand.  ``layout_from_dict`` and
``accesses_from_tuples`` invert ``LinearLayout.to_dict`` and
``SharedAccesses.to_tuples``; ``dense_twin`` stores a table's value
dense.  Only tests import it.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Sequence

import numpy as np

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


def layout_from_dict(data: Mapping[str, object]) -> LinearLayout:
    """Rebuild a layout saved by ``LinearLayout.to_dict``."""
    return LinearLayout(
        {
            d: [tuple(img) for img in images]
            for d, images in data["bases"].items()
        },
        dict(data["out_dims"]),
        require_surjective=False,
    )


def accesses_from_tuples(tuples: Sequence) -> SharedAccesses:
    """Build the dense accesses from the nested ``(base, regs)`` view."""
    threads = len(tuples)
    k_max = max((len(a) for a in tuples), default=0)
    v_max = max((len(regs) for a in tuples for _, regs in a), default=0)
    base = np.zeros((threads, k_max), dtype=np.int64)
    width = np.zeros((threads, k_max), dtype=np.int64)
    regs = np.full((threads, k_max, v_max), -1, dtype=np.int64)
    for t, lane_accesses in enumerate(tuples):
        for k, (b, rs) in enumerate(lane_accesses):
            base[t, k] = b
            width[t, k] = len(rs)
            regs[t, k, : len(rs)] = rs
    return SharedAccesses(base, width, regs)


def dense_twin(acc: SharedAccesses, dtype=np.int32) -> SharedAccesses:
    """``acc`` with each array stored dense, as ``dtype``: the
    constructor's storage (int32, one stored row) bypassed, so tests
    can compare the two storages of one value."""
    twin = SharedAccesses.__new__(SharedAccesses)
    twin._head = twin._build = twin._hash = None
    for name in ("base", "width", "regs"):
        arr = np.array(getattr(acc, name), dtype=dtype)
        arr.flags.writeable = False
        setattr(twin, name, arr)
    return twin


def _decode_value(value):
    if isinstance(value, dict) and "__layout__" in value:
        return layout_from_dict(value["__layout__"])
    if isinstance(value, dict) and "__accesses__" in value:
        return accesses_from_tuples(_decode_value(value["__accesses__"]))
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
