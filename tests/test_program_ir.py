"""The unified warp-program IR: planner output, interpreters, lowering.

The heavyweight property: random src/dst layout pairs executed
through the vectorized interpreter match the scalar oracle AND direct
``LinearLayout`` evaluation bit-for-bit — register files *and*
traces.  Every plan kind emits one fixed program shape.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench.fig7 import shuffle_pair
from repro.codegen import plan_conversion
from repro.codegen.gather import (
    axis_component_bits,
    gather_shared_program,
    gather_shuffle_program,
    plan_gather,
)
from repro.codegen.views import DistributedView
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.gpusim import (
    Machine,
    RegisterFile,
    distributed_data,
    price_program,
)
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250, RTX4090
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from repro.mxfp import F16, F32, F8E5M2
from repro.program import (
    Opcode,
    R_IN,
    R_OUT,
    lower_plan,
    program_from_json,
    program_to_json,
)

from tests.test_gpusim import run_gather
from tests.test_random_layout_conversions import (
    random_distributed_layout,
)
from tests.test_shared_access_oracle import conversion_cases
from tests.test_shuffle_oracle import shuffle_pairs


def both_machines(spec=RTX4090, num_warps=4):
    return (
        Machine(spec, num_warps, backend="scalar"),
        Machine(spec, num_warps, backend="vector"),
    )


class TestInterpreterEquivalence:
    """Vectorized == scalar oracle == direct layout evaluation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs_all_backends_bit_for_bit(self, seed):
        rng = random.Random(seed)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(rng, 9, shape=shape)
        dst = random_distributed_layout(rng, 9, shape=shape)
        plan = plan_conversion(src, dst, elem_bits=16, spec=RTX4090)
        scalar, vector = both_machines()
        registers = distributed_data(src, 4, 32)
        out_s, trace_s = scalar.run_conversion(plan, registers)
        out_v, trace_v = vector.run_conversion(plan, registers)
        # Bit-for-bit register files and identical traces.
        assert out_s.as_dict() == out_v.as_dict()
        assert trace_s.instructions == trace_v.instructions
        # And both agree with what the layouts say directly.
        assert_matches_layout(out_v, dst)

    @pytest.mark.parametrize("seed", range(6))
    def test_broadcast_pairs_all_backends(self, seed):
        rng = random.Random(300 + seed)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(
            rng, 9, extra_reg_bits=1, shape=shape
        )
        dst = random_distributed_layout(
            rng, 9, extra_reg_bits=1, shape=shape
        )
        plan = plan_conversion(src, dst, elem_bits=32, spec=GH200)
        scalar, vector = both_machines(GH200)
        registers = distributed_data(src, 4, 32)
        out_s, trace_s = scalar.run_conversion(plan, registers)
        out_v, trace_v = vector.run_conversion(plan, registers)
        assert out_s.as_dict() == out_v.as_dict()
        assert trace_s.instructions == trace_v.instructions
        assert_matches_layout(out_v, dst)

    def test_pricing_agrees_with_execution_counts(self):
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = plan_conversion(src, dst, 16, spec=RTX4090)
        program = plan.program
        priced = price_program(program, RTX4090)
        _, executed = Machine(RTX4090, 4).run_conversion(
            plan, distributed_data(src, 4, 32)
        )
        # One pricing path, one execution path, same stream shape.
        assert [i.kind for i in priced.instructions] == [
            i.kind for i in executed.instructions
        ]
        assert [i.count for i in priced.instructions] == [
            i.count for i in executed.instructions
        ]


@pytest.mark.slow
def test_vector_backend_at_least_3x_scalar_on_fig7():
    """The vectorized interpreter, the one the engine ships, runs the
    Figure 7 suite (shuffle and padded shared plans, f8/f16/f32 at
    32/64/128 on GH200) at least 3x faster than the scalar oracle."""
    cases = []
    for dtype in (F8E5M2, F16, F32):
        for size in (32, 64, 128):
            a_desc, b_desc = shuffle_pair(size)
            src = a_desc.to_linear((size, size))
            dst = b_desc.to_linear((size, size))
            registers = distributed_data(src, 4, GH200.warp_size)
            for options in (
                {"allow_shuffle": True},
                {
                    "allow_shuffle": False,
                    "swizzle_mode": "padded",
                    "dedupe_broadcast": False,
                },
            ):
                plan = plan_conversion(
                    src, dst, dtype.bits, spec=GH200, **options
                )
                cases.append((plan, registers))
    assert len(cases) == 18

    def run_all(machine, iters):
        start = time.perf_counter()
        for _ in range(iters):
            for plan, registers in cases:
                machine.run_conversion(plan, registers)
        return time.perf_counter() - start

    scalar, vector = both_machines(GH200)
    # One warm pass each, so cached index plans and layout derivations
    # bill neither timed run.
    run_all(scalar, 1)
    run_all(vector, 1)
    assert run_all(scalar, 3) / run_all(vector, 3) >= 3.0


class TestGatherBackends:
    def _setup(self):
        layout = BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 16)
        )
        view = DistributedView(layout)
        src = distributed_data(layout, 4, 32)
        index = RegisterFile(4, 32)
        for w in range(4):
            for lane in range(32):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = view.flat_of(
                        {REGISTER: r, LANE: lane, WARP: w}
                    )
                    index.write(w, lane, r, (p * 7 + 3) % 16)
        return layout, src, index

    def test_gather_shuffle_backends_agree(self):
        layout, src, index = self._setup()
        scalar, vector = both_machines()
        program = gather_shuffle_program(layout, 1)
        out_s, trace_s = run_gather(scalar, program, src, index)
        out_v, trace_v = run_gather(vector, program, src, index)
        assert out_s.as_dict() == out_v.as_dict()
        assert trace_s.instructions == trace_v.instructions

    def test_gather_shared_backends_agree(self):
        layout, src, index = self._setup()
        scalar, vector = both_machines()
        program = gather_shared_program(layout, 1)
        out_s, trace_s = run_gather(scalar, program, src, index)
        out_v, trace_v = run_gather(vector, program, src, index)
        assert out_s.as_dict() == out_v.as_dict()
        assert trace_s.instructions == trace_v.instructions

    def test_gather_program_shuffle_count(self):
        layout, _, _ = self._setup()
        program = gather_shuffle_program(layout, 1)
        rounds = 1 << axis_component_bits(layout, LANE, 1)
        assert len(program) == 1
        assert program.instrs[0].shuffle_count == (
            rounds * layout.in_dim_size(REGISTER)
        )


class TestProgramStructure:
    def test_noop_plan_is_empty_program(self):
        layout = BlockedLayout((1, 1), (8, 4), (2, 2), (1, 0)).to_linear(
            (16, 8)
        )
        plan = plan_conversion(layout, layout, elem_bits=32)
        program = plan.program
        assert len(program) == 0
        assert program.result == R_IN

    def test_spaces_and_num_regs(self):
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        program = plan_conversion(src, dst, 16).program
        assert R_IN in program.spaces()
        assert program.num_regs(R_IN) >= 1
        assert program.num_regs("nonexistent") == 0

    def test_json_round_trip_preserves_execution(self):
        rng = random.Random(7)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(rng, 9, shape=shape)
        dst = random_distributed_layout(rng, 9, shape=shape)
        plan = plan_conversion(src, dst, elem_bits=16)
        program = plan.program
        rebuilt = program_from_json(program_to_json(program))
        assert rebuilt.instrs == program.instrs
        assert rebuilt.result == program.result
        machine = Machine(RTX4090, 4)
        registers = distributed_data(src, 4, 32)
        files, trace = machine.run_program(rebuilt, {R_IN: registers})
        if rebuilt.instrs:
            assert_matches_layout(files[rebuilt.result], dst)
        assert (
            trace.instructions
            == machine.run_program(program, {R_IN: registers})[1].instructions
        )


SPECS = (RTX4090, GH200, MI250)


@st.composite
def plan_cases(draw):
    """(spec, src, dst) on the three platforms, reaching every plan kind."""
    spec, src, dst, _, _ = draw(conversion_cases())
    pick = draw(st.sampled_from(["random", "same", "registers", "shuffle"]))
    if pick == "same":
        dst = src
    elif pick == "registers":
        regs = src.bases[REGISTER]
        order = draw(st.permutations(range(len(regs))))
        bases = src.bases
        bases[REGISTER] = [regs[i] for i in order]
        dst = LinearLayout(bases, src.out_dim_sizes())
    elif pick == "shuffle":
        src, dst = draw(shuffle_pairs())
        warp_size = src.in_dim_size(LANE)
        spec = draw(
            st.sampled_from([s for s in SPECS if s.warp_size == warp_size])
        )
    return spec, src, dst


def _wiring(program):
    return [(i.opcode, i.reads(), i.writes()) for i in program]


@settings(max_examples=150, deadline=None)
@given(
    case=plan_cases(),
    mode=st.sampled_from(["optimal", "padded", "none"]),
    bits=st.sampled_from([8, 16, 32]),
)
def test_program_shape_per_plan_kind(case, mode, bits):
    """Each plan kind emits one program shape with fixed operands."""
    spec, src, dst = case
    plan = plan_conversion(src, dst, bits, spec=spec, swizzle_mode=mode)
    program = plan.program
    assert program.label == plan.kind
    wiring = _wiring(program)
    if plan.kind == "noop":
        assert wiring == [] and program.result == R_IN
        return
    assert program.result == R_OUT
    if plan.kind == "register":
        assert wiring == [(Opcode.MOVR, (R_IN,), R_OUT)]
    elif plan.kind == "shuffle":
        fan_out = [(Opcode.MOVR, (R_OUT,), R_OUT)]
        rounds = wiring[:-1] if wiring[-1:] == fan_out else wiring
        assert rounds
        assert set(rounds) == {(Opcode.SHFL, (R_IN,), R_OUT)}
    else:
        assert plan.kind == "shared"
        assert wiring == [
            (Opcode.STS, (R_IN,), None),
            (Opcode.BAR, (), None),
            (Opcode.LDS, (), R_OUT),
        ]


@settings(max_examples=150, deadline=None)
@given(
    case=plan_cases(),
    mode=st.sampled_from(["optimal", "padded", "none"]),
    bits=st.sampled_from([8, 16, 32]),
)
def test_static_price_matches_executed_trace(case, mode, bits):
    """Warp 0's static price is the worst-warp price of a real run.

    ``price_program`` at its default of one warp emits exactly the
    records the machine emits after running the plan with data on
    every warp, on both backends: no width floor, no worse warp.
    """
    spec, src, dst = case
    plan = plan_conversion(src, dst, bits, spec=spec, swizzle_mode=mode)
    priced = price_program(plan.program, spec).instructions
    warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    registers = distributed_data(src, warps, spec.warp_size)
    for machine in both_machines(spec, warps):
        _, trace = machine.run_conversion(plan, registers)
        assert trace.instructions == priced


@pytest.mark.parametrize("mode", ["linear", "legacy"])
@pytest.mark.parametrize("spec", [RTX4090, GH200], ids=lambda s: s.name)
def test_price_gather_emits_cheaper_program(spec, mode):
    """Across the Figure 8 sweep the op pricer bills the cheaper gather
    program (a tie goes to the shuffles); legacy mode always stages."""
    from types import SimpleNamespace

    from repro.bench.fig8 import gather_layout
    from repro.gpusim import Trace, op_cost_model

    cost = op_cost_model(spec, mode)
    billed = set()
    for axis_size in (2, 4, 8, 16, 32, 64, 128):
        layout = gather_layout(512, axis_size)
        shared = price_program(gather_shared_program(layout, 1), spec)
        shuffle = price_program(gather_shuffle_program(layout, 1), spec)
        cheaper = shuffle if shuffle.cycles() <= shared.cycles() else shared
        expected = cheaper if mode == "linear" else shared
        chosen = plan_gather(layout, 1, spec, mode == "linear")
        assert chosen.label == (
            "gather-shuffle" if expected is shuffle else "gather-shared"
        )
        trace = Trace(spec)
        op = SimpleNamespace(
            inputs=[SimpleNamespace(layout=layout)], attrs={"axis": 1}
        )
        cost.price_gather(op, trace)
        assert trace.instructions == expected.instructions
        billed.add(expected is shuffle)
    # Both sides of the crossover are exercised in linear mode.
    assert billed == ({False, True} if mode == "linear" else {False})


class TestLowerPlan:
    def test_fresh_copy_with_cold_scratch(self):
        src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear(
            (32, 64)
        )
        dst = NvidiaMmaLayout((2, 2)).to_linear((32, 64))
        plan = plan_conversion(src, dst, 16, spec=RTX4090)
        Machine(RTX4090, 4).run_conversion(
            plan, distributed_data(src, 4, 32)
        )
        assert plan.program.scratch
        program = lower_plan(plan)
        assert program is not plan.program
        assert program == plan.program
        assert program.scratch == {}


class TestPreshuffleProgram:
    def test_table_matches_numpy_preshuffle(self):
        import numpy as np

        from repro.mxfp.shuffle_opt import (
            preshuffle_operand,
            preshuffle_register_table,
        )

        kwidth = 2
        k = 16
        table = preshuffle_register_table(k, kwidth)
        w = np.arange(k, dtype=np.float64).reshape(k, 1)
        shuffled = preshuffle_operand(w, kwidth)
        assert [int(v) for v in shuffled[:, 0]] == list(table)
