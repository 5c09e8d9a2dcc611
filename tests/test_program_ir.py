"""The unified warp-program IR: planner output, interpreters, lowering.

The heavyweight property: random src/dst layout pairs executed by
the machine match the per-lane reference interpreter
(``tests/program_reference.py``) AND direct ``LinearLayout``
evaluation bit-for-bit — register files *and* traces.  Every plan
kind emits one fixed program shape.
"""

import functools
import random
import time

import numpy as np
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
from repro.codegen.views import DistributedView, slot_table
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.gpusim import (
    Machine,
    RegisterFile,
    distributed_data,
    price_program,
)
from repro.gpusim.registers import assert_matches_layout
from repro.hardware import GH200, MI250, PLATFORMS, RTX4090
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from repro.mxfp import F16, F32, F8E5M2
from repro.codegen.access import SharedAccesses
from repro.gpusim.memory import access_wavefronts
from repro.program import (
    Bar,
    Lds,
    Opcode,
    R_IDX,
    R_IN,
    R_OUT,
    Sts,
    WarpProgram,
    lower_plan,
    program_from_json,
    program_to_json,
)
from repro.program import interp

from tests.program_reference import (
    ScalarInterpreter,
    reference_conversion,
    run_reference,
    shared_wavefronts,
)
from tests.test_gpusim import run_gather
from tests.test_random_layout_conversions import (
    random_distributed_layout,
)
from tests.test_shared_access_oracle import _random_tuples, conversion_cases
from tests.test_shuffle_oracle import shuffle_pairs


def assert_matches_reference(spec, num_warps, plan, registers):
    """Run a plan on the machine and on the per-lane reference: the
    register files must match bit for bit and the traces must be
    equal.  Returns the machine's (registers, trace)."""
    out_s, trace_s = reference_conversion(spec, num_warps, plan, registers)
    out_v, trace_v = Machine(spec, num_warps).run_conversion(plan, registers)
    assert out_s.as_dict() == out_v.as_dict()
    assert trace_s.instructions == trace_v.instructions
    return out_v, trace_v


class TestInterpreterEquivalence:
    """Machine == per-lane reference == direct layout evaluation."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs_match_reference_bit_for_bit(self, seed):
        rng = random.Random(seed)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(rng, 9, shape=shape)
        dst = random_distributed_layout(rng, 9, shape=shape)
        plan = plan_conversion(src, dst, elem_bits=16, spec=RTX4090)
        registers = distributed_data(src, 4, 32)
        out, _ = assert_matches_reference(RTX4090, 4, plan, registers)
        # And both agree with what the layouts say directly.
        assert_matches_layout(out, dst)

    @pytest.mark.parametrize("seed", range(6))
    def test_broadcast_pairs_match_reference(self, seed):
        rng = random.Random(300 + seed)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(
            rng, 9, extra_reg_bits=1, shape=shape
        )
        dst = random_distributed_layout(
            rng, 9, extra_reg_bits=1, shape=shape
        )
        plan = plan_conversion(src, dst, elem_bits=32, spec=GH200)
        registers = distributed_data(src, 4, 32)
        out, _ = assert_matches_reference(GH200, 4, plan, registers)
        assert_matches_layout(out, dst)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs_at_warp_64_match_reference(self, seed):
        """64-lane MI250 wavefronts, shuffle and shared plans alike."""
        rng = random.Random(600 + seed)
        shape = {"dim0": 16, "dim1": 64}
        src = random_distributed_layout(rng, 10, lane_bits=6, shape=shape)
        dst = random_distributed_layout(rng, 10, lane_bits=6, shape=shape)
        plan = plan_conversion(src, dst, elem_bits=16, spec=MI250)
        registers = distributed_data(src, 4, 64)
        out, _ = assert_matches_reference(MI250, 4, plan, registers)
        assert_matches_layout(out, dst)

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
def test_machine_at_least_3x_reference_on_fig7():
    """The machine runs the Figure 7 suite (shuffle and padded shared
    plans, f8/f16/f32 at 32/64/128 on GH200) at least 3x faster than
    the per-lane reference interpreter."""
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

    def run_all(run_conversion, iters):
        start = time.perf_counter()
        for _ in range(iters):
            for plan, registers in cases:
                run_conversion(plan, registers)
        return time.perf_counter() - start

    machine = Machine(GH200, 4)

    def reference(plan, registers):
        return reference_conversion(GH200, 4, plan, registers)

    # One warm pass each, so cached index plans and layout derivations
    # bill neither timed run.
    run_all(reference, 1)
    run_all(machine.run_conversion, 1)
    assert (
        run_all(reference, 3) / run_all(machine.run_conversion, 3) >= 3.0
    )


class TestGatherPrograms:
    def _setup(self, layout=None, spec=RTX4090):
        if layout is None:
            layout = BlockedLayout(
                (1, 2), (4, 8), (4, 1), (1, 0)
            ).to_linear((16, 16))
        ws = spec.warp_size
        view = DistributedView(layout)
        src = distributed_data(layout, 4, ws)
        index = RegisterFile(4, ws)
        for w in range(4):
            for lane in range(ws):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = view.flat_of(
                        {REGISTER: r, LANE: lane, WARP: w}
                    )
                    index.write(w, lane, r, (p * 7 + 3) % 16)
        return layout, src, index

    def _assert_matches_reference(self, program, spec=RTX4090, layout=None):
        """The machine's gather matches the per-lane reference: same
        registers, and the same trace as pricing the reference's
        measured gather wavefronts."""
        _, src, index = self._setup(layout, spec)
        inputs = {R_IN: src, R_IDX: index}
        files, trace_s = run_reference(spec, 4, program, inputs)
        out_v, trace_v = run_gather(Machine(spec, 4), program, src, index)
        assert files[program.result].as_dict() == out_v.as_dict()
        assert trace_s.instructions == trace_v.instructions

    def test_gather_shuffle_matches_reference(self):
        layout, _, _ = self._setup()
        self._assert_matches_reference(gather_shuffle_program(layout, 1))

    def test_gather_shared_matches_reference(self):
        layout, _, _ = self._setup()
        self._assert_matches_reference(gather_shared_program(layout, 1))

    @pytest.mark.parametrize(
        "lower", [gather_shuffle_program, gather_shared_program]
    )
    def test_gather_at_warp_64_matches_reference(self, lower):
        layout = BlockedLayout((1, 2), (8, 8), (4, 1), (1, 0)).to_linear(
            (32, 16)
        )
        self._assert_matches_reference(lower(layout, 1), MI250, layout)

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

    Three independent counts agree: ``price_program`` at its default
    of one warp (the dense counter over warp 0's access table), the
    machine's trace (the keyed counter over the element offsets its
    interpreter moved, on every warp) and the per-lane reference's
    trace (the scalar per-bank count, one request at a time): no width
    floor, no worse warp.  The run itself matches the reference bit
    for bit on every plan kind; the random pairs above all plan
    through shared memory, so this is what holds ``MOVR`` and ``SHFL``
    (32 and 64 lanes) to the reference.
    """
    spec, src, dst = case
    plan = plan_conversion(src, dst, bits, spec=spec, swizzle_mode=mode)
    priced = price_program(plan.program, spec).instructions
    warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    registers = distributed_data(src, warps, spec.warp_size)
    out, trace = assert_matches_reference(spec, warps, plan, registers)
    assert trace.instructions == priced
    assert_matches_layout(out, dst)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from([RTX4090, MI250]),
    num_warps=st.integers(1, 8),
    elem_bytes=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 16]),
    fill=st.floats(0.0, 1.25),
    max_slots=st.integers(1, 4),
    max_width=st.sampled_from([1, 2, 4, 8, 16]),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_shared_steps_match_tuples_and_reference(
    spec, num_warps, elem_bytes, fill, max_slots, max_width, full, seed
):
    """A store, barrier and load of one random access table, through
    the interpreter's compiled STS/LDS.

    Full-width tables (every thread moves the widest vector in every
    slot) compile on their (slot, thread, element) grid, ragged ones
    flat; warps of 32 and 64 lanes, 1-8 warps, a partial last warp,
    fewer threads than warps x lanes and more than the machine keeps.
    Elements of 3 bytes and of 6 or more span bank words.  The compiled
    ``(thread, reg, offset)``, raveled, are the tuple view's elements
    in issue order, ``moved`` counts them per (slot, warp), and the
    bound is one past the highest offset moved.
    The measured wavefronts equal both the scalar per-request count and
    the static price over the same warps, and the run matches the
    per-lane reference bit for bit.
    """
    ws = spec.warp_size
    threads = int(fill * num_warps * ws)
    tuples = _random_tuples(
        np.random.default_rng(seed), threads, max_slots, max_width, full
    )
    acc = SharedAccesses.from_tuples(tuples)
    program = WarpProgram(
        (Sts(acc, elem_bytes), Bar(), Lds(acc, elem_bytes))
    )
    thread, reg, off, wavefronts, bound, last = interp._compile_shared(
        program.instrs[0], spec, ws, num_warps
    )
    if full and threads:
        assert off.ndim == 3
    kept = tuples[: num_warps * ws]
    issued = [
        (t, r, accesses[k][0] + j)
        for k in range(max_slots)
        for t, accesses in enumerate(kept)
        if k < len(accesses)
        for j, r in enumerate(accesses[k][1])
    ]
    grid = np.broadcast_arrays(thread, reg, off)
    assert list(zip(*(a.ravel().tolist() for a in grid))) == issued
    assert bound == max((o + 1 for _, _, o in issued), default=0)
    final = {o: n for n, (_, _, o) in enumerate(issued)}
    if len(final) == len(issued):
        assert last is None
    else:
        assert sorted(last.tolist()) == sorted(final.values())
    assert interp._compile_shared(program.instrs[2], spec, ws, num_warps)[5] is None
    moved = acc.moved(ws, num_warps)
    per_row = np.zeros((max_slots, -(-len(kept) // ws)), dtype=np.int64)
    for t, accesses in enumerate(kept):
        for k, (_, regs) in enumerate(accesses):
            per_row[k, t // ws] += len(regs)
    assert moved.tolist() == per_row[: moved.shape[0]].tolist()
    assert not per_row[moved.shape[0]:].any()
    assert moved.sum() == off.size == len(issued)

    reference = shared_wavefronts(spec, num_warps, acc, elem_bytes)
    assert wavefronts == reference
    slots = acc.leading(num_warps * ws).max_accesses
    if slots:
        static = access_wavefronts(acc, spec, elem_bytes, num_warps)
        assert wavefronts == max(1, int(static.max(axis=0).sum()) // slots)
    else:
        assert wavefronts == 0

    shape = (num_warps, ws, max(1, acc.max_reg() + 1))
    values = np.arange(np.prod(shape)).reshape(shape) * 7 + 3

    def inputs():
        mask = np.ones(shape, dtype=bool)
        return {R_IN: RegisterFile.from_dense(values.copy(), mask, *shape[:2])}

    files, measured = interp.run(program, inputs(), spec, num_warps)
    ref_files, ref_measured = ScalarInterpreter(spec, num_warps).run(
        program, inputs()
    )
    assert measured == ref_measured == (reference, reference)
    assert files[R_OUT].as_dict() == ref_files[R_OUT].as_dict()


def test_compiled_grid_bills_a_partial_last_warp_on_its_own_lanes():
    """Warp 0 stores words 0-31, one per bank; warp 1 is one lane
    storing word 32.  Each row is one wavefront, so the bill is 1: the
    grid pads the last warp with a lane it already has, not with an
    offset of its own."""
    tuples = [((lane, (0,)),) for lane in range(33)]
    sts = Sts(SharedAccesses.from_tuples(tuples), elem_bytes=4)
    thread, reg, off, wavefronts, bound, last = interp._compile_shared(
        sts, RTX4090, 32, 2
    )
    assert off.shape == (1, 33, 1)
    assert wavefronts == 1 == shared_wavefronts(RTX4090, 2, sts.accesses, 4)
    assert bound == 33
    assert last is None


def test_sts_with_repeated_offsets_keeps_each_offsets_last_write():
    """RTX4090, 1 warp, every thread 3 slots of width 1 at random
    offsets (seed 1): threads store to colliding offsets, and the load
    reads what the last store in issue order (slot, then thread) wrote,
    as the per-lane reference does.  The STS writes each offset once,
    from its last issue, so the result does not rest on the order in
    which NumPy writes repeated fancy indices; its wavefronts still
    count every issued element."""
    spec, ws = RTX4090, RTX4090.warp_size
    tuples = _random_tuples(np.random.default_rng(1), ws, 3, 1, True)
    offsets = [base for accesses in tuples for base, _ in accesses]
    assert len(set(offsets)) < len(offsets)
    acc = SharedAccesses.from_tuples(tuples)
    program = WarpProgram((Sts(acc, 4), Bar(), Lds(acc, 4)))
    *_, wavefronts, _, last = interp._compile_shared(
        program.instrs[0], spec, ws, 1
    )
    assert len(last) == len(set(offsets))
    assert wavefronts == shared_wavefronts(spec, 1, acc, 4)
    shape = (1, ws, 1)
    values = np.arange(ws).reshape(shape) * 7 + 3

    def inputs():
        mask = np.ones(shape, dtype=bool)
        return {R_IN: RegisterFile.from_dense(values.copy(), mask, 1, ws)}

    files, measured = interp.run(program, inputs(), spec, 1)
    ref_files, ref_measured = ScalarInterpreter(spec, 1).run(program, inputs())
    assert measured == ref_measured
    assert files[R_OUT].as_dict() == ref_files[R_OUT].as_dict()


@functools.lru_cache(maxsize=1)
def fig9_plans():
    """Every distinct fig9 conversion plan, in suite order, with its
    platform and the warp count the simulator runs it at."""
    from tests.test_pipeline import FIG9_SUITE, _compile_fig9

    plans, seen = [], set()
    for model, case, platform, mode in FIG9_SUITE:
        for plan in _compile_fig9(model, case, platform, mode).conversions:
            if id(plan) not in seen:
                seen.add(id(plan))
                warps = max(
                    plan.src.in_dim_size(WARP), plan.dst.in_dim_size(WARP)
                )
                plans.append((PLATFORMS[platform], plan, warps))
    return tuple(plans)


def assert_fig9_traces_agree(plans):
    """On each plan the machine's trace equals the static price over
    all its warps and the price of the reference's per-request counts,
    and the destination registers hold the destination layout."""
    for spec, plan, warps in plans:
        registers = distributed_data(plan.src, warps, spec.warp_size)
        out, trace = Machine(spec, warps).run_conversion(plan, registers)
        assert_matches_layout(out, plan.dst)
        static = price_program(plan.program, spec, warps)
        counted = [
            shared_wavefronts(spec, warps, i.accesses, i.elem_bytes)
            for i in plan.program.instrs
            if i.opcode in (Opcode.STS, Opcode.LDS)
        ]
        scalar = price_program(plan.program, spec, warps, counted)
        assert trace.instructions == static.instructions, plan
        assert trace.instructions == scalar.instructions, plan


def test_fig9_traces_match_static_price():
    """The first fig9 plans: measured == static all-warp == reference."""
    plans = fig9_plans()
    assert len(plans) == 297
    assert_fig9_traces_agree(plans[:24])


@pytest.mark.slow
def test_fig9_traces_match_static_price_everywhere():
    """Every distinct fig9 plan (RTX4090, GH200 and MI250, both modes)."""
    plans = fig9_plans()
    assert {spec.name for spec, _, _ in plans} == {"RTX4090", "GH200", "MI250"}
    assert_fig9_traces_agree(plans)


# ----------------------------------------------------------------------
# Typed register files against the per-lane reference
# ----------------------------------------------------------------------
def typed_values(kind, size, draw_index=None):
    """``value_of`` for one of the machine's value kinds.

    ``"int64"`` is the positions times an odd constant; ``"float64"``
    is float data with NaN, ±inf and -0.0 in it (``draw_index`` picks
    where, else fixed spots); ``"object"`` is the int data with
    position 0 replaced by a string, which promotes the file.
    """
    if kind == "int64":
        return lambda p: p * 5 + 3
    if kind == "float64":
        flat = np.arange(size, dtype=np.float64) / 4 - 1
        pick = draw_index or (lambda i: (i * 7 + 1) % size)
        for i, special in enumerate([np.nan, -0.0, np.inf, -np.inf]):
            flat[pick(i)] = special
        return lambda p: flat[p]
    flat = np.arange(size, dtype=np.int64).astype(object)
    flat[0] = "bad"
    return lambda p: flat[p]


def typed_registers(kind, layout, num_warps, warp_size, value_of):
    """A register file of ``layout`` holding ``value_of``; the object
    kind is an int64 file promoted by writing the string into every
    slot of position 0, one slot at a time."""
    if kind != "object":
        return distributed_data(layout, num_warps, warp_size, value_of)
    rf = distributed_data(layout, num_warps, warp_size)
    for w, l, r in np.argwhere(slot_table(layout) == 0).tolist():
        rf.write(w, l, r, "bad")
    assert rf.dtype == object
    return rf


def file_contents(rf):
    """The written slots, the dtype, and the values bit for bit
    (``-0.0`` differs from ``0.0``; NaN matches NaN)."""
    cells = rf.as_dict()
    slots = sorted(cells)
    values = [cells[s] for s in slots]
    if rf.dtype == object:
        return slots, rf.dtype, [(type(v), v) for v in values]
    return slots, rf.dtype, np.array(values, dtype=rf.dtype).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    case=plan_cases(),
    kind=st.sampled_from(["int64", "float64", "object"]),
    mode=st.sampled_from(["optimal", "padded", "none"]),
    data=st.data(),
)
def test_typed_machine_matches_reference(case, kind, mode, data):
    """Every plan kind moves int64, float64 (NaN, ±inf, -0.0) and
    promoted object files exactly as the per-lane reference does: same
    dtype, same written slots, same bits, same trace; the typed check
    passes the result."""
    spec, src, dst = case
    plan = plan_conversion(src, dst, 16, spec=spec, swizzle_mode=mode)
    size = 1 << src.total_out_bits()
    value_of = typed_values(
        kind, size, lambda i: data.draw(st.integers(0, size - 1))
    )
    warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    registers = typed_registers(
        kind, src, warps, spec.warp_size, value_of
    )
    out_s, trace_s = reference_conversion(spec, warps, plan, registers)
    out_v, trace_v = Machine(spec, warps).run_conversion(plan, registers)
    assert out_v.dtype == registers.dtype
    assert file_contents(out_v) == file_contents(out_s)
    assert trace_v.instructions == trace_s.instructions
    assert_matches_layout(out_v, dst, value_of)


@settings(max_examples=60, deadline=None)
@given(case=plan_cases(), mode=st.sampled_from(["optimal", "padded", "none"]))
def test_unwritten_slots_stay_unwritten(case, mode):
    """A position no source slot holds reaches no destination slot,
    through registers, shuffles and shared memory alike: the mask
    moves with the values, and the check names the first such slot."""
    spec, src, dst = case
    plan = plan_conversion(src, dst, 16, spec=spec, swizzle_mode=mode)
    warps = max(src.in_dim_size(WARP), dst.in_dim_size(WARP))
    registers = distributed_data(src, warps, spec.warp_size)
    for w, l, r in np.argwhere(slot_table(src) == 0).tolist():
        registers.write(w, l, r, None)
    out, _ = Machine(spec, warps).run_conversion(plan, registers)
    table = slot_table(dst)
    _, written = out.dense(*table.shape)
    assert (written == (table != 0)).all()
    with pytest.raises(KeyError, match=r"\(w=0, l=0, r=0\)"):
        assert_matches_layout(out, dst)


@pytest.mark.parametrize("kind", ["int64", "float64", "object"])
@pytest.mark.parametrize(
    "lower", [gather_shuffle_program, gather_shared_program]
)
@pytest.mark.parametrize("spec", [RTX4090, MI250], ids=lambda s: s.name)
def test_typed_gathers_match_reference(spec, lower, kind):
    """Gathers move typed sources by an int64 index file as the
    per-lane reference does, at warp 32 and warp 64."""
    shape = (16, 16) if spec.warp_size == 32 else (32, 16)
    threads = (4, 8) if spec.warp_size == 32 else (8, 8)
    layout = BlockedLayout((1, 2), threads, (4, 1), (1, 0)).to_linear(shape)
    size = 1 << layout.total_out_bits()
    value_of = typed_values(kind, size)
    src = typed_registers(kind, layout, 4, spec.warp_size, value_of)
    index = distributed_data(
        layout, 4, spec.warp_size, value_of=lambda p: (p * 7 + 3) % 16
    )
    program = lower(layout, 1)
    files, trace_s = run_reference(
        spec, 4, program, {R_IN: src, R_IDX: index}
    )
    out_v, trace_v = run_gather(Machine(spec, 4), program, src, index)
    assert out_v.dtype == src.dtype
    assert file_contents(out_v) == file_contents(files[program.result])
    assert trace_v.instructions == trace_s.instructions


def _gather_layout(spec):
    """The 16x16 blocked gather layout at warp 32; 32x16 at warp 64."""
    if spec.warp_size == 32:
        return BlockedLayout((1, 2), (4, 8), (4, 1), (1, 0)).to_linear(
            (16, 16)
        )
    return BlockedLayout((1, 2), (8, 8), (4, 1), (1, 0)).to_linear((32, 16))


@pytest.mark.parametrize("bad", [16, 17, -1])
@pytest.mark.parametrize(
    "lower", [gather_shuffle_program, gather_shared_program]
)
@pytest.mark.parametrize("spec", [RTX4090, MI250], ids=lambda s: s.name)
def test_gather_index_outside_axis_raises(spec, lower, bad):
    """An index outside ``[0, 16)`` raises ``IndexError`` on the
    machine and on the per-lane reference, as ``np.take_along_axis``
    does past the axis end (a negative index raises too, where NumPy
    would wrap it), instead of reading another row: an index of 17
    would read row 1, column 1."""
    layout = _gather_layout(spec)
    ws = spec.warp_size
    src = distributed_data(layout, 4, ws)
    index = distributed_data(
        layout, 4, ws, value_of=lambda p: np.full_like(p, bad)
    )
    program = lower(layout, 1)
    if bad >= 16:
        with pytest.raises(IndexError):
            np.take_along_axis(np.zeros((16, 16)), np.full((16, 16), bad), 1)
    match = rf"gather index {bad} is out of bounds for axis 1 with size 16"
    with pytest.raises(IndexError, match=match + r" at \(w=0, l=0, r=0\)"):
        run_gather(Machine(spec, 4), program, src, index)
    with pytest.raises(IndexError, match=match + r" at \(w=0, l=0, r=0\)"):
        run_reference(spec, 4, program, {R_IN: src, R_IDX: index})


@pytest.mark.parametrize(
    "lower", [gather_shuffle_program, gather_shared_program]
)
@pytest.mark.parametrize("spec", [RTX4090, MI250], ids=lambda s: s.name)
def test_gather_names_the_first_bad_index(spec, lower):
    """One bad index among good ones: both interpreters name the same
    slot; an unwritten index slot is not checked."""
    layout = _gather_layout(spec)
    ws = spec.warp_size
    here = slot_table(layout)
    bad_flat = int(here[2, 3, 1])
    src = distributed_data(layout, 4, ws)
    index = distributed_data(
        layout, 4, ws, value_of=lambda p: np.where(p == bad_flat, 17, p & 15)
    )
    program = lower(layout, 1)
    with pytest.raises(IndexError) as machine_error:
        run_gather(Machine(spec, 4), program, src, index)
    with pytest.raises(IndexError) as reference_error:
        run_reference(spec, 4, program, {R_IN: src, R_IDX: index})
    assert "(w=2, l=3, r=1)" in str(machine_error.value)
    assert str(machine_error.value) == str(reference_error.value)
    # The machine skips unwritten index slots: the bad slot unwritten,
    # the gather runs.
    vals, written = index.dense(4, ws, layout.in_dim_size(REGISTER))
    written[2, 3, 1] = False
    out, _ = run_gather(
        Machine(spec, 4),
        program,
        src,
        RegisterFile.from_dense(vals, written, 4, ws),
    )
    assert (2, 3, 1) not in out.as_dict()


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
