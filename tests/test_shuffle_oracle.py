"""Differential tests of the array-native warp-shuffle planner.

:func:`repro.codegen.shuffles.plan_warp_shuffle` builds every round of
the Section 5.4 construction at once from the layouts' owner tables
(:func:`repro.codegen.views.owner_table`).  It must agree with the
per-element reference (:mod:`tests.shuffle_reference`) on random
distributed pairs with equal warp images: warp 32 and warp 64
(MI250), 1-8 warps, register broadcast on either side, every element
width against 32- and 64-bit shuffles.  Both return the same
instructions, the fan-out :class:`~repro.program.ir.MovR` included,
or raise the same :class:`ShufflePlanError` message.

A valid pair never has a coset revisit a lane: the lane maps are
linear and injective on ``span(I u G)``.  The revisit checks are
exercised by folding one lane bit away in both planners' lane
lookups, which makes every coset revisit lanes on both sides.
"""

from __future__ import annotations

import json
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cache
from repro.codegen import conversion, shuffles
from repro.codegen.shuffles import ShufflePlanError, plan_warp_shuffle
from repro.codegen.views import DistributedView, owner_table
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.engine.ir import OpKind
from repro.hardware.spec import PLATFORMS
from repro.program.ir import Shfl, WarpProgram
from repro.program.serialize import (
    instr_from_dict,
    instr_to_dict,
    program_to_dict,
)
from tests import shuffle_reference as reference
from tests.test_shared_access_oracle import _coords, conversion_cases


def _layout(shape, regs, lanes, warps):
    return LinearLayout(
        {
            REGISTER: [_coords(c, shape) for c in regs],
            LANE: [_coords(c, shape) for c in lanes],
            WARP: [_coords(c, shape) for c in warps],
        },
        dict(shape),
    )


@st.composite
def shuffle_pairs(draw):
    """Distributed (src, dst) with equal warp images, no lane broadcast."""
    lane_bits = draw(st.sampled_from([5, 6]))
    warp_bits = draw(st.integers(0, 3))
    zero_warps = draw(st.integers(0, warp_bits))
    reg_bits = draw(st.integers(0, 3))
    warp_nz = warp_bits - zero_warps
    d = lane_bits + warp_nz + reg_bits
    rows = draw(st.integers(0, d))
    shape = {"dim0": 1 << rows, "dim1": 1 << (d - rows)}
    units = draw(st.permutations([1 << i for i in range(d)]))
    warps = draw(st.permutations(list(units[:warp_nz]) + [0] * zero_warps))
    rest = list(units[warp_nz:])

    def side():
        order = draw(st.permutations(rest))
        zero_regs = draw(st.integers(0, 2))
        regs = draw(st.permutations(list(order[lane_bits:]) + [0] * zero_regs))
        lanes = draw(st.permutations(order[:lane_bits]))
        return _layout(shape, regs, lanes, warps)

    return side(), side()


@st.composite
def widths(draw):
    return (
        draw(st.sampled_from([8, 16, 32, 64])),
        draw(st.sampled_from([32, 64])),
    )


def _outcome(plan, *args):
    try:
        return "ok", list(plan(*args))
    except ShufflePlanError as exc:
        return "err", str(exc)


@settings(max_examples=120, deadline=None)
@given(pair=shuffle_pairs(), bits=widths())
def test_plan_matches_reference(pair, bits):
    src, dst = pair
    want = _outcome(reference.plan_warp_shuffle, src, dst, *bits)
    with cache.disabled():
        assert _outcome(plan_warp_shuffle, src, dst, *bits) == want
    # Memoized: the cached instructions and rejections are the same.
    assert _outcome(plan_warp_shuffle, src, dst, *bits) == want
    assert _outcome(plan_warp_shuffle, src, dst, *bits) == want


@settings(max_examples=60, deadline=None)
@given(case=conversion_cases(), bits=widths())
def test_rejections_match_reference(case, bits):
    """Arbitrary pairs: warp movement, lane broadcast, rank mismatch."""
    _, src, dst, _, _ = case
    with cache.disabled():
        assert _outcome(plan_warp_shuffle, src, dst, *bits) == _outcome(
            reference.plan_warp_shuffle, src, dst, *bits
        )


def _fold_lane_bit(bit):
    """Patches clearing lane bit ``bit`` in both planners' lookups."""
    lane_of = reference._lane_of

    def folded_lane_of(view, flat):
        return lane_of(view, flat) & ~(1 << bit)

    def folded_owner_table(layout):
        table = owner_table(layout)
        table[:, 1] &= ~(1 << bit)
        return table

    return (
        mock.patch.object(reference, "_lane_of", folded_lane_of),
        mock.patch.object(shuffles, "owner_table", folded_owner_table),
    )


@settings(max_examples=80, deadline=None)
@given(pair=shuffle_pairs(), bits=widths(), data=st.data())
def test_lane_revisits_match_reference(pair, bits, data):
    """Same first failing round, destination checked before source."""
    src, dst = pair
    bit = data.draw(st.integers(0, src.in_dim_size_log2(LANE) - 1))
    patch_reference, patch_table = _fold_lane_bit(bit)
    with patch_reference:
        want = _outcome(reference.plan_warp_shuffle, src, dst, *bits)
    with patch_table:
        got = _outcome(shuffles._plan_warp_shuffle, src, dst, *bits)
    assert got == want
    assert want[0] == "err" and "lane twice" in want[1]


def test_lane_revisits_cover_both_sides():
    """Folding hits the destination check and the source check."""
    src = _layout({"dim0": 8}, [1], [2, 4], [])
    dst = _layout({"dim0": 8}, [4], [1, 2], [])
    seen = set()
    for bit in (0, 1):
        patch_reference, patch_table = _fold_lane_bit(bit)
        with patch_reference:
            want = _outcome(reference.plan_warp_shuffle, src, dst, 32, 32)
        with patch_table:
            got = _outcome(shuffles._plan_warp_shuffle, src, dst, 32, 32)
        assert got == want
        seen.add(want[1])
    assert seen == {
        "coset visits a destination lane twice",
        "coset visits a source lane twice",
    }


@settings(max_examples=80, deadline=None)
@given(case=conversion_cases())
def test_owner_table_matches_owner_of(case):
    _, layout, _, _, _ = case
    view = DistributedView(layout)
    table = owner_table(layout)
    assert table.shape == (1 << layout.total_out_bits(), 3)
    want = [
        [view.owner_of(p).get(dim, 0) for dim in (REGISTER, LANE, WARP)]
        for p in range(len(table))
    ]
    assert table.tolist() == want


@settings(max_examples=60, deadline=None)
@given(case=conversion_cases(), data=st.data())
def test_register_permutation_matches_reference(case, data):
    _, src, dst, _, _ = case
    # Same lanes and warps, registers permuted: the planner's
    # register-permutation case; arbitrary pairs read the same tables.
    regs = src.bases[REGISTER]
    order = data.draw(st.permutations(range(len(regs))))
    bases = src.bases
    bases[REGISTER] = [regs[i] for i in order]
    permuted = LinearLayout(bases, src.out_dim_sizes())
    for a, b in ((src, permuted), (src, dst)):
        assert conversion._register_permutation(a, b) == (
            reference.register_permutation(a, b)
        )


def test_owner_table_is_int64_rows():
    layout = _layout({"dim0": 4, "dim1": 8}, [1, 0, 8], [2, 16], [4])
    table = owner_table(layout)
    assert table.dtype == np.int64
    # Position 8 is register bit 2 (the broadcast bit 1 stays 0).
    assert table[8].tolist() == [4, 0, 0]
    assert table[4 | 16].tolist() == [0, 2, 1]


def test_fig9_shuffle_programs_match_reference():
    """Every fig9 shuffle plan's rounds are the reference's, and its
    serialized program is the one tuple operands serialize to."""
    from tests.test_pipeline import FIG9_SUITE, _compile_fig9

    checked = set()
    for model, case, platform, mode in FIG9_SUITE:
        if mode != "linear":
            continue
        compiled = _compile_fig9(model, case, platform, mode)
        converts = [
            op for op in compiled.graph.ops
            if op.kind == OpKind.CONVERT_LAYOUT
        ]
        for op, plan in zip(converts, compiled.conversions):
            if plan.kind != "shuffle" or id(plan) in checked:
                continue
            checked.add(id(plan))
            spec = PLATFORMS[platform]
            rounds = reference.plan_warp_shuffle(
                plan.src, plan.dst, op.inputs[0].dtype.bits,
                spec.shuffle_bytes * 8,
            )
            assert list(plan.program.instrs) == rounds
            assert json.dumps(program_to_dict(plan.program)) == json.dumps(
                program_to_dict(WarpProgram(tuple(rounds), label="shuffle"))
            )
    assert len(checked) >= 15  # 18 distinct plans today


def _tuple_round(lanes, vec, seed):
    rng = np.random.default_rng(seed)
    return dict(
        src_lane=tuple(int(x) for x in rng.permutation(lanes)),
        send_regs=tuple(
            tuple(int(r) for r in rng.integers(0, 16, vec))
            for _ in range(lanes)
        ),
        recv_regs=tuple(
            tuple(int(r) for r in rng.integers(0, 16, vec))
            for _ in range(lanes)
        ),
    )


@settings(max_examples=40, deadline=None)
@given(
    lanes=st.sampled_from([4, 32, 64]),
    vec=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_shfl_value_semantics(lanes, vec, seed):
    """Tuples and arrays build equal, equally hashed, read-only rounds."""
    fields = _tuple_round(lanes, vec, seed)
    arrays = {k: np.array(v, dtype=np.int64) for k, v in fields.items()}
    from_tuples = Shfl(**fields, warps=4, insts=2)
    from_arrays = Shfl(**arrays, warps=4, insts=2)
    assert from_tuples == from_arrays
    assert hash(from_tuples) == hash(from_arrays)
    assert pickle.loads(pickle.dumps(from_arrays)) == from_tuples
    assert instr_from_dict(instr_to_dict(from_arrays)) == from_tuples
    # The instruction owns its operands: the caller's array is copied.
    arrays["send_regs"][0, 0] += 1
    assert from_arrays == from_tuples
    for name in ("src_lane", "send_regs", "recv_regs"):
        arr = getattr(from_arrays, name)
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    for changed in (
        dict(fields, warps=2, insts=2),
        dict(fields, warps=4, insts=1),
        dict(fields, warps=4, insts=2, dst="tmp"),
        dict(
            fields, warps=4, insts=2,
            recv_regs=tuple(r[::-1] + (1,) for r in fields["recv_regs"]),
        ),
    ):
        assert Shfl(**changed) != from_tuples


def test_shfl_rejects_ragged_operands():
    one = ((0,),)
    with pytest.raises(ValueError, match="src_lane"):
        Shfl(src_lane=((0, 1),), send_regs=one, recv_regs=one, warps=1)
    with pytest.raises(ValueError):
        Shfl(
            src_lane=(0, 1), send_regs=((0,), (0, 1)), recv_regs=one * 2,
            warps=1,
        )
