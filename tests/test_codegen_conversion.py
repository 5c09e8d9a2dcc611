"""Conversion planner tests — including the end-to-end property:
every plan, executed on the simulated GPU, routes every element to the
slot the destination layout demands."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import (
    ConversionKind,
    classify_conversion,
    plan_conversion,
)
from repro.core import LANE, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.gpusim import Machine, distributed_data
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250, RTX4090
from repro.layouts import (
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    SlicedLayout,
)
from repro.core.reshape import transpose_layout


def run_and_verify(src, dst, elem_bits=16, spec=RTX4090, **kwargs):
    plan = plan_conversion(src, dst, elem_bits, spec=spec, **kwargs)
    num_warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    machine = Machine(spec, num_warps=num_warps)
    registers = distributed_data(src, num_warps, spec.warp_size)
    converted, trace = machine.run_conversion(plan, registers)
    assert_matches_layout(converted, dst)
    return plan, trace


class TestClassification:
    def test_noop(self):
        a = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        assert classify_conversion(a, a) == ConversionKind.NOOP

    def test_equivalent_sliced_blocked_is_noop(self):
        """The welford case: different kinds, same map."""
        blocked1d = BlockedLayout((1,), (32,), (4,), (0,)).to_linear(
            (128,)
        )
        parent = BlockedLayout((1, 1), (32, 1), (4, 1), (1, 0))
        sliced = SlicedLayout(parent, 1, 1).to_linear((128,))
        assert classify_conversion(sliced, blocked1d) == (
            ConversionKind.NOOP
        )

    def test_register_permutation(self):
        a = BlockedLayout((2, 1), (4, 8), (2, 2), (0, 1)).to_linear(
            (16, 32)
        )
        # Same lanes/warps; registers walk the other direction.
        b_bases = a.bases
        b_bases[REGISTER] = list(reversed(b_bases[REGISTER]))
        from repro.core import LinearLayout

        b = LinearLayout(b_bases, a.out_dim_sizes())
        assert classify_conversion(a, b) == ConversionKind.REGISTER

    def test_shuffle(self):
        a = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        assert classify_conversion(a, b) == ConversionKind.SHUFFLE

    def test_shared_when_warps_move(self):
        a = BlockedLayout((1, 1), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 32)
        )
        b = BlockedLayout((1, 1), (4, 8), (1, 4), (1, 0)).to_linear(
            (16, 32)
        )
        assert classify_conversion(a, b) == ConversionKind.SHARED

    def test_shape_mismatch_rejected(self):
        a = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (16, 32)
        )
        b = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 32)
        )
        with pytest.raises(LayoutError):
            classify_conversion(a, b)


class TestExecutedPlans:
    def test_register_plan(self):
        a = BlockedLayout((2, 1), (4, 8), (2, 2), (0, 1)).to_linear(
            (16, 32)
        )
        from repro.core import LinearLayout

        b_bases = a.bases
        b_bases[REGISTER] = list(reversed(b_bases[REGISTER]))
        b = LinearLayout(b_bases, a.out_dim_sizes())
        plan, trace = run_and_verify(a, b)
        assert plan.kind == "register"
        assert trace.cycles() == 0  # register renaming is free

    def test_shuffle_plan(self):
        a = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        plan, trace = run_and_verify(a, b)
        assert plan.kind == "shuffle"

    def test_shared_plan_blocked_to_mma(self):
        a = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan, trace = run_and_verify(a, b)
        assert plan.kind == "shared"
        assert trace.histogram().get("bar.sync", 0) == 1

    def test_shared_plan_to_operand(self):
        a = BlockedLayout((1, 8), (8, 4), (2, 2), (1, 0)).to_linear(
            (64, 64)
        )
        b = MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2).to_linear(
            (64, 64)
        )
        run_and_verify(a, b)

    def test_transpose_conversion(self):
        src = BlockedLayout((1, 4), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 32)
        )
        transposed = transpose_layout(src, (1, 0))
        dst = BlockedLayout((1, 4), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 32)
        )
        plan, _ = run_and_verify(transposed, dst, elem_bits=8)
        assert plan.kind == "shared"

    def test_padded_mode(self):
        a = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan, _ = run_and_verify(
            a, b, swizzle_mode="padded", allow_shuffle=False,
            dedupe_broadcast=False,
        )
        assert any("padded" in n for n in plan.notes)

    @pytest.mark.parametrize("elem_bits", [8, 16, 32])
    def test_padded_pad_is_one_vector(self, elem_bits):
        """Legacy padding inserts one 128-bit vector per bank row."""
        a = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan, _ = run_and_verify(
            a, b, elem_bits=elem_bits, swizzle_mode="padded",
            allow_shuffle=False,
        )
        assert f"padded staging: pad={128 // elem_bits} elems" in plan.notes

    def test_padded_footprint_includes_padding(self):
        a = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        padded = plan_conversion(
            a, b, 16, swizzle_mode="padded", allow_shuffle=False
        )
        raw = plan_conversion(a, b, 16, swizzle_mode="none", allow_shuffle=False)
        assert raw.shared_bytes == 32 * 64 * 2
        pad_bytes = 8 * 2  # one 128-bit vector per padded bank row
        extra = padded.shared_bytes - raw.shared_bytes
        assert extra > 0 and extra % pad_bytes == 0

    def test_shuffle_disabled_falls_back_to_shared(self):
        a = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        plan, _ = run_and_verify(a, b, allow_shuffle=False)
        assert plan.kind == "shared"

    def test_broadcast_source_dedupe(self):
        """A source with warp duplicates stores each element once."""
        a = BlockedLayout((2, 2), (8, 4), (1, 4), (1, 0)).to_linear(
            (16, 16)
        )
        b = NvidiaMmaLayout((2, 2)).to_linear((16, 16))
        plan, _ = run_and_verify(a, b)
        assert plan.kind == "shared"

    def test_amd_warp64(self):
        a = BlockedLayout((1, 2), (8, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        from repro.layouts import AmdMfmaLayout

        b = AmdMfmaLayout((2, 2)).to_linear((32, 64))
        run_and_verify(a, b, spec=MI250)


BLOCKED_PARAMS = st.sampled_from([
    ((1, 2), (4, 8), (2, 2), (1, 0)),
    ((2, 1), (8, 4), (2, 2), (1, 0)),
    ((1, 1), (4, 8), (4, 1), (1, 0)),
    ((2, 2), (8, 4), (1, 4), (0, 1)),
    ((1, 4), (16, 2), (2, 2), (1, 0)),
    ((4, 1), (2, 16), (2, 2), (0, 1)),
])


@given(BLOCKED_PARAMS, BLOCKED_PARAMS, st.sampled_from([8, 16, 32]))
@settings(max_examples=25, deadline=None)
def test_any_blocked_pair_converts_correctly(pa, pb, elem_bits):
    """Property: plan_conversion + Machine move every element right,
    whatever path the planner picks."""
    shape = (32, 32)
    src = BlockedLayout(*pa).to_linear(shape)
    dst = BlockedLayout(*pb).to_linear(shape)
    run_and_verify(src, dst, elem_bits=elem_bits)


@given(
    BLOCKED_PARAMS,
    st.sampled_from([(1, 1), (2, 2), (4, 1), (1, 4), (2, 1)]),
    st.sampled_from([16, 32]),
)
@settings(max_examples=15, deadline=None)
def test_blocked_to_mma_converts_correctly(pa, warps, elem_bits):
    shape = (32, 64)
    src = BlockedLayout(*pa).to_linear(shape)
    dst = NvidiaMmaLayout(warps).to_linear(shape)
    run_and_verify(src, dst, elem_bits=elem_bits, spec=GH200)
