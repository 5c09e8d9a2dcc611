"""Tests for the register-broadcast extension of the shuffle planner.

The paper's Section 5.4 assumes no broadcasting; this reproduction
deduplicates broadcast registers, shuffles the quotient, and fans the
received values out with a final register permute — so conversions
between replicated layouts still skip shared memory.
"""

import random

import pytest

from repro.codegen import ConversionKind, classify_conversion, plan_conversion
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.gpusim import Machine, distributed_data
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import RTX4090
from repro.program import Opcode


def layout_with_free_reg(reg_images, lane_images, warp_images, size):
    return LinearLayout(
        {
            REGISTER: [(x,) for x in reg_images],
            LANE: [(x,) for x in lane_images],
            WARP: [(x,) for x in warp_images],
        },
        {"dim0": size},
    )


class TestBroadcastShuffles:
    def setup_method(self):
        self.src = layout_with_free_reg(
            [1, 0], [2, 4, 8, 16, 32], [64, 128], 256
        )
        self.dst = layout_with_free_reg(
            [0, 4], [1, 2, 8, 16, 32], [64, 128], 256
        )

    def test_classified_as_shuffle(self):
        assert classify_conversion(self.src, self.dst) == (
            ConversionKind.SHUFFLE
        )

    def test_plan_has_replication_step(self):
        plan = plan_conversion(self.src, self.dst, 16, spec=RTX4090)
        assert plan.kind == "shuffle"
        *rounds, fan_out = plan.program.instrs
        assert fan_out.opcode == Opcode.MOVR
        assert all(i.opcode == Opcode.SHFL for i in rounds)

    def test_replication_table_clears_free_bits(self):
        plan = plan_conversion(self.src, self.dst, 16, spec=RTX4090)
        table = plan.program.instrs[-1].dst_to_src
        # dst free bit is bit 0: registers 1 and 3 copy 0 and 2.
        assert table == (0, 0, 2, 2)

    def test_executed_correctly(self):
        plan = plan_conversion(self.src, self.dst, 16, spec=RTX4090)
        registers = distributed_data(self.src, 4, 32)
        converted, trace = Machine(RTX4090, 4).run_conversion(
            plan, registers
        )
        assert_matches_layout(converted, self.dst)
        assert "st.shared" not in trace.histogram()

    def test_cheaper_than_shared(self):
        from repro.gpusim.opcost import price_program

        shuffle = plan_conversion(self.src, self.dst, 16, spec=RTX4090)
        shared = plan_conversion(
            self.src, self.dst, 16, spec=RTX4090, allow_shuffle=False
        )
        assert (
            price_program(shuffle.program, RTX4090).cycles()
            < price_program(shared.program, RTX4090).cycles()
        )

    def test_lane_broadcast_still_falls_back(self):
        src = layout_with_free_reg(
            [1, 2], [0, 4, 8, 16, 32], [64, 128], 256
        )
        dst = layout_with_free_reg(
            [4, 2], [0, 1, 8, 16, 32], [64, 128], 256
        )
        assert classify_conversion(src, dst) == ConversionKind.SHARED

    @pytest.mark.parametrize("seed", range(5))
    def test_random_broadcast_pairs(self, seed):
        rng = random.Random(seed)
        units = [1 << i for i in range(8)]
        rng.shuffle(units)
        warp = units[:2]

        def make():
            rest = units[2:]
            order = list(range(6))
            rng.shuffle(order)
            regs = [rest[order[0]], 0, rest[order[1]]]
            lanes = [rest[order[i]] for i in range(2, 6)]
            return LinearLayout(
                {
                    REGISTER: [(x,) for x in regs],
                    LANE: [(x,) for x in lanes],
                    WARP: [(x,) for x in warp],
                },
                {"dim0": 256},
            )

        src, dst = make(), make()
        plan = plan_conversion(src, dst, 16, spec=RTX4090)
        registers = distributed_data(src, 4, 32)
        converted, _ = Machine(RTX4090, 4).run_conversion(
            plan, registers
        )
        assert_matches_layout(converted, dst)
