"""Warp-shuffle planner tests (Section 5.4, Figure 4)."""

import pytest

from repro.codegen.shuffles import (
    ShufflePlanError,
    plan_warp_shuffle,
    shuffle_preconditions,
)
from repro.codegen.views import DistributedView
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.layouts import BlockedLayout


def figure4_layouts():
    """The Figure 4 setting: four threads, two registers each, on an
    8-element tensor; source and destination disagree on every thread
    bit (V and I empty)."""
    src = LinearLayout(
        {REGISTER: [(1,)], LANE: [(2,), (4,)]}, {"dim0": 8}
    )
    dst = LinearLayout(
        {REGISTER: [(4,)], LANE: [(1,), (2,)]}, {"dim0": 8}
    )
    return src, dst


class TestFigure4:
    def test_round_structure(self):
        src, dst = figure4_layouts()
        rounds = plan_warp_shuffle(src, dst, elem_bits=32)
        # |V| = 0, |I| = 0, |G| = 2, so R has 1 vector: 2 rounds,
        # each moving one element per thread — as in the figure.
        assert len(rounds) == 2
        for rnd in rounds:
            assert len(set(rnd.src_lane)) == 4  # a permutation of lanes
            assert all(len(regs) == 1 for regs in rnd.send_regs)

    def test_data_movement(self):
        src, dst = figure4_layouts()
        rounds = plan_warp_shuffle(src, dst, elem_bits=32)
        values = {}  # (lane, reg) -> element, per src
        sview = DistributedView(src)
        for lane in range(4):
            for reg in range(2):
                values[(lane, reg)] = sview.flat_of(
                    {REGISTER: reg, LANE: lane}
                )
        received = {}
        for rnd in rounds:
            for lane, src_lane in enumerate(rnd.src_lane):
                for s_reg, d_reg in zip(
                    rnd.send_regs[src_lane], rnd.recv_regs[lane]
                ):
                    received[(lane, d_reg)] = values[(src_lane, s_reg)]
        dview = DistributedView(dst)
        for lane in range(4):
            for reg in range(2):
                expected = dview.flat_of({REGISTER: reg, LANE: lane})
                assert received[(lane, reg)] == expected


class TestVectorization:
    def test_shared_registers_vectorize(self):
        """Shared register bases raise the per-shuffle payload."""
        src = BlockedLayout((1, 2), (8, 4), (1, 1), (1, 0)).to_linear(
            (16, 16)
        )
        dst = BlockedLayout((2, 2), (4, 8), (1, 1), (0, 1)).to_linear(
            (16, 16)
        )
        # Both registers hold the dim1-low element: V is non-trivial,
        # so each shuffle moves a vectorized pair of f8 elements.
        rounds = plan_warp_shuffle(src, dst, elem_bits=8)
        assert all(len(r.send_regs[0]) >= 2 for r in rounds)

    def test_wide_elements_span_instructions(self):
        src, dst = figure4_layouts()
        rounds_32 = plan_warp_shuffle(src, dst, elem_bits=32)
        rounds_64 = plan_warp_shuffle(src, dst, elem_bits=64)
        assert rounds_32[0].insts == 1
        assert rounds_64[0].insts == 2


class TestPreconditions:
    def test_warp_mismatch(self):
        a = BlockedLayout((1, 1), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 32)
        )
        b = BlockedLayout((1, 1), (4, 8), (1, 4), (1, 0)).to_linear(
            (16, 32)
        )
        ok, why = shuffle_preconditions(
            DistributedView(a), DistributedView(b)
        )
        assert not ok and "warp" in why
        with pytest.raises(ShufflePlanError):
            plan_warp_shuffle(a, b, 16)

    def test_broadcast_rejected(self):
        a = LinearLayout(
            {REGISTER: [(1,), (0,)], LANE: [(2,), (4,)]}, {"dim0": 8}
        )
        b = LinearLayout(
            {REGISTER: [(4,), (2,)], LANE: [(1,), (0,)]},
            {"dim0": 8},
        )
        with pytest.raises(ShufflePlanError):
            plan_warp_shuffle(a, b, 16)

    def test_full_warp_case(self):
        """A realistic full-warp conversion: every round covers all 32
        lanes exactly once each way."""
        a = BlockedLayout((1, 2), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        b = BlockedLayout((2, 1), (4, 8), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        rounds = plan_warp_shuffle(a, b, elem_bits=16)
        for rnd in rounds:
            assert sorted(set(rnd.src_lane)) == list(range(32))
