"""The unified op-level cost model: whole IR ops -> priced instructions.

:class:`repro.hardware.cost.CostModel` prices individual instruction
records; this module is the layer above it — the single authority that
decides *which* instructions an IR operation turns into (loads, dots,
reductions, scans, gathers, staged conversions) and what they cost.
Both the lowering pass (:mod:`repro.engine.passes.lower`) and the
rematerialization pass consume this interface, so there is exactly
one place where op pricing lives.

:func:`price_program` is the one instruction pricer: the only code
that turns warp-program instructions into :class:`Trace` records.
Conversions and gathers are priced through their warp programs, and
the simulated machine prices its executed runs with the same function
(passing its warp count and the shared-memory wavefronts the
interpreter measured), so static op counts and simulated traces share
one instruction mapping while their bank conflicts are counted
independently.

Mode differences (legacy vs linear) are declarative: a frozen
:class:`CostPolicy` captures every knob the two engine modes disagree
on — conversion and gather planning options, descriptor-based
vectorization, broadcast deduplication — instead of ``if mode``
branches scattered through the pricing code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro import cache as _cache
from repro.codegen.conversion import plan_conversion
from repro.codegen.gather import plan_gather
from repro.codegen.plan import ConversionPlan
from repro.codegen.vectorize import legacy_vector_width_bits, vector_width_bits
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.gpusim.memory import access_wavefronts, matrix_instructions
from repro.gpusim.trace import Trace
from repro.hardware.cost import cost_model
from repro.hardware.instructions import Instruction, InstructionKind, instruction
from repro.hardware.spec import GpuSpec
from repro.program.ir import Opcode, WarpProgram
from repro.layouts.blocked import BlockedLayout
from repro.layouts.mfma import AmdMfmaLayout
from repro.layouts.wgmma import WgmmaLayout
from repro.mxfp.types import DType


@dataclass(frozen=True)
class CostPolicy:
    """Every pricing decision the two engine modes make differently.

    ``mode`` tags cache keys (and names the policy); the remaining
    fields are the actual decisions, so pricing code never asks "am I
    legacy?" — it asks for the decision it needs.
    """

    mode: str
    #: Conversion planner options (see :func:`plan_conversion`);
    #: ``allow_shuffle`` also lets gathers use warp shuffles.
    allow_shuffle: bool
    swizzle_mode: str
    dedupe_broadcast: bool
    #: Use the descriptor-based legacy vector width for blocked layouts.
    descriptor_vectorize: bool


LINEAR_POLICY = CostPolicy(
    mode="linear",
    allow_shuffle=True,
    swizzle_mode="optimal",
    dedupe_broadcast=True,
    descriptor_vectorize=False,
)

LEGACY_POLICY = CostPolicy(
    mode="legacy",
    allow_shuffle=False,
    swizzle_mode="padded",
    dedupe_broadcast=False,
    descriptor_vectorize=True,
)


def policy_for_mode(mode: str) -> CostPolicy:
    """The pricing policy of an engine mode."""
    if mode == "linear":
        return LINEAR_POLICY
    if mode == "legacy":
        return LEGACY_POLICY
    raise ValueError(f"mode must be linear or legacy: {mode!r}")


# ----------------------------------------------------------------------
# The one instruction pricer
# ----------------------------------------------------------------------
#: (plain kind, matrix kind) of the two static shared-memory opcodes.
_SHARED_KINDS = {
    Opcode.STS: (InstructionKind.SHARED_STORE, InstructionKind.STMATRIX),
    Opcode.LDS: (InstructionKind.SHARED_LOAD, InstructionKind.LDMATRIX),
}


def price_program(
    program: WarpProgram,
    spec: GpuSpec,
    warps: int = 1,
    measured: Optional[Sequence[int]] = None,
) -> Trace:
    """The priced instruction trace of a warp program.

    The only code that turns warp-program instructions into
    :class:`Trace` records: static op pricing and the simulator's
    executed runs both come through here.  Register moves are free.
    An STS/LDS is priced from the rows of the first ``warps`` warps
    alone: it issues one instruction per access slot among them at the
    widest access they make, ld/stmatrix as
    :func:`~repro.gpusim.memory.matrix_instructions` counts them.

    ``measured`` holds an executed run's wavefronts, one per STS, LDS
    and GATHER_LDS in program order (:func:`repro.program.interp.run`
    returns them).  Without it, a plain STS/LDS slot costs its worst
    warp over the access table (static pricing looks at warp 0 alone,
    which equals the worst warp on every conversion measured, and so
    never builds a deferred access table), and a gather load, whose
    addresses depend on data, is priced as the in-kernel pipelined
    load: the indices are loaded well before the gather, so only the
    ~2-way random bank conflicts remain.  With it, each costs what the
    run measured, and a gather load is priced as the standalone load,
    address-dependent.
    """
    trace = Trace(spec)
    runs = None if measured is None else iter(measured)
    for instr in program.instrs:
        op = instr.opcode
        if op == Opcode.MOVR:
            continue  # register renaming is free
        if op == Opcode.SHFL:
            trace.emit(InstructionKind.SHUFFLE, count=instr.insts)
        elif op in _SHARED_KINDS:
            kind, matrix = _SHARED_KINDS[op]
            ran = None if runs is None else next(runs)
            acc = instr.accesses.leading(warps * spec.warp_size)
            slots = acc.max_accesses
            if slots == 0:
                continue
            if instr.use_stmatrix if op == Opcode.STS else instr.use_ldmatrix:
                insts = matrix_instructions(acc, instr.elem_bytes)
                trace.emit(matrix, vector_bits=128, count=insts)
                continue
            if ran is None:
                worst = access_wavefronts(acc, spec, instr.elem_bytes, warps)
                ran = max(1, int(worst.max(axis=0, initial=0).sum()) // slots)
            trace.emit(
                kind,
                vector_bits=acc.widest * instr.elem_bytes * 8,
                count=slots,
                wavefronts=ran,
            )
        elif op == Opcode.BAR:
            trace.emit(InstructionKind.BARRIER)
        elif op == Opcode.GATHER_SHFL:
            trace.emit(InstructionKind.SHUFFLE, count=instr.shuffle_count)
        elif op == Opcode.GATHER_STS:
            trace.emit(
                InstructionKind.SHARED_STORE,
                count=instr.layout.in_dim_size(REGISTER),
            )
        elif op == Opcode.GATHER_LDS:
            ran = None if runs is None else next(runs)
            trace.emit(
                InstructionKind.SHARED_LOAD,
                count=instr.layout.in_dim_size(REGISTER),
                wavefronts=2 if ran is None else ran,
                dependent=ran is not None,
            )
        else:  # pragma: no cover
            raise TypeError(f"unknown instruction {instr!r}")
    return trace


def program_price(
    program: WarpProgram, spec: GpuSpec
) -> Tuple[Tuple[Instruction, ...], float]:
    """(records, cycles) of the static ``price_program(program, spec)``.

    A static price depends only on the program and the platform, so it
    is memoized once, on the program, under ``("price", spec)``: the
    planner's candidate pricing, static op pricing and gather planning
    all read the same entry.
    """
    key = ("price", spec)
    priced = program.scratch.get(key)
    if priced is None:
        trace = price_program(program, spec)
        priced = (tuple(trace.instructions), trace.cycles())
        program.scratch[key] = priced
    return priced


class OpCostModel:
    """Prices whole IR operations on one platform under one policy.

    Emission methods (``price_*``) append instruction records to a
    :class:`Trace`; query methods (``global_cycles``,
    ``conversion_cycles``) return cycle counts for what-if comparisons
    — the rematerialization pass uses those to decide whether a
    rewrite pays off, guaranteeing it prices alternatives with exactly
    the model the lowering pass will charge.
    """

    def __init__(self, spec: GpuSpec, policy: CostPolicy):
        self.spec = spec
        self.policy = policy
        self.instruction_model = cost_model(spec)

    @property
    def mode(self) -> str:
        """The engine mode this model prices for."""
        return self.policy.mode

    # ------------------------------------------------------------------
    # Global memory
    # ------------------------------------------------------------------
    def vector_bits(self, layout, desc, shape, bits: int) -> int:
        """Vector access width of a global load/store of ``layout``."""
        if self.policy.descriptor_vectorize and isinstance(desc, BlockedLayout):
            return legacy_vector_width_bits(desc, shape, bits, self.spec.max_vector_bits)
        return vector_width_bits(layout, bits, self.spec.max_vector_bits)

    def global_access(self, layout, desc, shape, dtype, kind: InstructionKind) -> Instruction:
        """The instruction record of a global load/store of ``layout``."""
        vec = self.vector_bits(layout, desc, shape, dtype.bits)
        count = max(1, layout.in_dim_size(REGISTER) * dtype.bits // vec)
        return instruction(kind, vector_bits=vec, count=count)

    def price_global(self, value, trace: Trace, kind: InstructionKind) -> None:
        """Emit the global load/store instructions of one value."""
        trace.instructions.append(
            self.global_access(value.layout, value.descriptor, value.shape, value.dtype, kind)
        )

    def global_cycles(self, layout, desc, shape, dtype) -> float:
        """Cycles of a global access without emitting it (memoized on
        the frozen descriptor itself, equal only within its class)."""

        def compute() -> float:
            inst = self.global_access(layout, desc, shape, dtype, InstructionKind.GLOBAL_LOAD)
            return self.instruction_model.instruction_cycles(inst)

        return _cache.cached(
            _cache.engine,
            (
                "cost",
                "global_cycles",
                self.policy.mode,
                layout.canonical_key(),
                desc,
                tuple(shape),
                dtype.bits,
                self.spec,
            ),
            compute,
        )

    # ------------------------------------------------------------------
    # Layout conversions
    # ------------------------------------------------------------------
    def plan(self, src: LinearLayout, dst: LinearLayout, dtype: DType) -> ConversionPlan:
        """Lower one conversion under this policy's planner options."""
        return plan_conversion(
            src,
            dst,
            elem_bits=dtype.bits,
            spec=self.spec,
            allow_shuffle=self.policy.allow_shuffle,
            swizzle_mode=self.policy.swizzle_mode,
            dedupe_broadcast=self.policy.dedupe_broadcast,
        )

    def priced_conversion(
        self, src: LinearLayout, dst: LinearLayout, dtype: DType
    ) -> Tuple[ConversionPlan, Tuple[Instruction, ...], float]:
        """(plan, priced instructions, cycles) of one conversion.

        The plan comes from the ``plans`` cache and its price from
        the program's memo (:func:`program_price`), so a repeated
        conversion skips planning *and* pricing.  The instruction
        tuple is extended into each compilation's trace; instructions
        are frozen, so sharing is safe.
        """
        plan = self.plan(src, dst, dtype)
        return (plan, *program_price(plan.program, self.spec))

    def conversion_cycles(self, src: LinearLayout, dst: LinearLayout, dtype: DType) -> float:
        """Cycles of converting ``src`` to ``dst`` (memoized)."""
        return self.priced_conversion(src, dst, dtype)[2]

    # ------------------------------------------------------------------
    # Compute & cross-lane ops
    # ------------------------------------------------------------------
    def price_elementwise(self, op, trace: Trace) -> None:
        """One ALU instruction per register of the output layout."""
        layout = op.output.layout
        trace.emit(InstructionKind.ALU, count=max(1, layout.in_dim_size(REGISTER)))

    def price_local_store(self, op, trace: Trace) -> None:
        """Staging a dot operand into shared memory (wgmma/mfma B)."""
        operand = op.inputs[0]
        elems = operand.layout.in_dim_size(REGISTER) if operand.layout else 1
        trace.emit(
            InstructionKind.SHARED_STORE,
            vector_bits=128,
            count=max(1, elems * operand.dtype.bits // 128),
        )

    def price_dot(self, op, trace: Trace) -> None:
        """MMA instructions per warp for the dot's tile shape."""
        parent = op.output.descriptor
        m, n = op.output.shape
        k = op.inputs[0].shape[1]
        if isinstance(parent, WgmmaLayout):
            tile = (64, parent.instr_n, 16)
            weight = max(1, int(parent.instr_n / 2 / 1.3))
        elif isinstance(parent, AmdMfmaLayout):
            tile = (32, 32, 8)
            weight = 3
        else:
            tile = (16, 8, 16)
            weight = 1
        per_warp = (
            max(1, m // (tile[0] * parent.warps_per_cta[0]))
            * max(1, n // (tile[1] * parent.warps_per_cta[1]))
            * max(1, k // tile[2])
        )
        trace.emit(InstructionKind.MMA, count=per_warp, wavefronts=weight)

    def price_reduce(self, op, trace: Trace) -> None:
        """In-register tree, butterfly shuffles, shared combine."""
        value = op.inputs[0]
        axis = op.attrs["axis"]
        layout = value.layout
        lane_bits = sum(1 for img in layout.bases.get(LANE, []) if img[axis] != 0)
        warp_bits = sum(1 for img in layout.bases.get(WARP, []) if img[axis] != 0)
        reg_bits = sum(1 for img in layout.bases.get(REGISTER, []) if img[axis] != 0)
        trace.emit(InstructionKind.ALU, count=max(1, 1 << reg_bits))
        trace.emit(InstructionKind.SHUFFLE, count=lane_bits)
        if warp_bits:
            # Cross-warp combine through shared memory.
            out_layout = op.output.layout
            from repro.codegen.broadcast import reduction_store_count

            stores = reduction_store_count(out_layout, self.policy.dedupe_broadcast)
            lanes = max(1, out_layout.in_dim_size(LANE))
            warps = max(1, out_layout.in_dim_size(WARP))
            per_thread = max(1, stores // (lanes * warps))
            trace.emit(InstructionKind.SHARED_STORE, vector_bits=32, count=per_thread)
            trace.emit(InstructionKind.BARRIER)
            trace.emit(
                InstructionKind.SHARED_LOAD,
                vector_bits=32,
                count=per_thread * (1 << warp_bits),
            )
            trace.emit(InstructionKind.ALU, count=1 << warp_bits)

    def price_scan(self, op, trace: Trace) -> None:
        """Hillis-Steele within the warp, shared combine across warps."""
        layout = op.inputs[0].layout
        axis = op.attrs["axis"]
        regs = layout.in_dim_size(REGISTER)
        lane_bits = sum(1 for img in layout.bases.get(LANE, []) if img[axis] != 0)
        warp_bits = sum(1 for img in layout.bases.get(WARP, []) if img[axis] != 0)
        trace.emit(InstructionKind.ALU, count=max(1, regs))
        trace.emit(InstructionKind.SHUFFLE, count=lane_bits * max(1, regs))
        if warp_bits:
            trace.emit(InstructionKind.SHARED_STORE, vector_bits=32, count=1)
            trace.emit(InstructionKind.BARRIER)
            trace.emit(
                InstructionKind.SHARED_LOAD,
                vector_bits=32,
                count=1 << warp_bits,
            )
            trace.emit(InstructionKind.ALU, count=max(1, regs))

    def price_gather(self, op, trace: Trace) -> None:
        """The gather program :func:`plan_gather` picks under the
        policy's ``allow_shuffle``, priced through its memo."""
        program = plan_gather(
            op.inputs[0].layout,
            op.attrs["axis"],
            self.spec,
            self.policy.allow_shuffle,
        )
        trace.instructions.extend(program_price(program, self.spec)[0])


def op_cost_model(spec: GpuSpec, mode: str) -> OpCostModel:
    """The op cost model of an engine mode on a platform."""
    return OpCostModel(spec, policy_for_mode(mode))


__all__ = [
    "CostPolicy",
    "LEGACY_POLICY",
    "LINEAR_POLICY",
    "OpCostModel",
    "op_cost_model",
    "policy_for_mode",
    "price_program",
    "program_price",
]
