"""Serialization tests: layouts and warp programs (JSON)."""

import json

import pytest

from repro.codegen import plan_conversion
from repro.codegen.gather import gather_shared_program, gather_shuffle_program
from repro.core import LinearLayout, REGISTER
from repro.gpusim import price_program
from repro.hardware import RTX4090
from repro.layouts import (
    AmdMfmaLayout,
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    SlicedLayout,
    SwizzledSharedLayout,
    WgmmaLayout,
)
from repro.program import program_from_json, program_to_json


ALL_LAYOUTS = [
    BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear((16, 32)),
    NvidiaMmaLayout((2, 2)).to_linear((32, 64)),
    MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2).to_linear((32, 64)),
    WgmmaLayout((4, 1), instr_n=32).to_linear((64, 64)),
    AmdMfmaLayout((2, 2)).to_linear((64, 64)),
    SlicedLayout(
        BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)), 1, 32
    ).to_linear((16,)),
    SwizzledSharedLayout(2, 1, 4).to_linear((16, 16)),
]


@pytest.mark.parametrize("layout", ALL_LAYOUTS, ids=lambda l: repr(l)[:40])
def test_round_trip(layout):
    rebuilt = LinearLayout.from_dict(layout.to_dict())
    assert rebuilt == layout


@pytest.mark.parametrize("layout", ALL_LAYOUTS[:4], ids=lambda l: repr(l)[:40])
def test_json_round_trip(layout):
    text = json.dumps(layout.to_dict())
    rebuilt = LinearLayout.from_dict(json.loads(text))
    assert rebuilt == layout
    # Behaviour, not just structure, survives.
    assert rebuilt.apply({REGISTER: 1}) == layout.apply({REGISTER: 1})


def test_dict_is_stable_structure():
    layout = ALL_LAYOUTS[0]
    data = layout.to_dict()
    assert set(data) == {"bases", "out_dims"}
    assert all(
        isinstance(img, list)
        for images in data["bases"].values()
        for img in images
    )


# ----------------------------------------------------------------------
# Warp programs
# ----------------------------------------------------------------------
def _conversion_programs():
    src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
        (32, 64)
    )
    dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
    shared = plan_conversion(src, dst, 16).program
    register = plan_conversion(
        src, src, elem_bits=16, dedupe_broadcast=False
    ).program
    gather_layout = BlockedLayout(
        (1, 2), (4, 8), (4, 1), (1, 0)
    ).to_linear((16, 16))
    return [
        shared,
        register,
        gather_shuffle_program(gather_layout, 1),
        gather_shared_program(gather_layout, 1),
    ]


@pytest.mark.parametrize(
    "program",
    _conversion_programs(),
    ids=lambda p: p.label or "anonymous",
)
def test_program_json_round_trip(program):
    text = program_to_json(program)
    rebuilt = program_from_json(json.loads(json.dumps(text)))
    assert rebuilt.instrs == program.instrs
    assert rebuilt.result == program.result
    assert rebuilt.label == program.label
    # Behaviour, not just structure: identical static pricing.
    assert (
        price_program(rebuilt, RTX4090).instructions
        == price_program(program, RTX4090).instructions
    )
