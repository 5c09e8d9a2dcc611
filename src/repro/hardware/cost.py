"""The simulator's cost model: instruction stream -> cycles.

Absolute numbers are synthetic; what the model preserves — and what
the paper's speedup figures depend on — are the *ratios* between
instruction classes: a shared-memory round trip (store + barrier +
load) costs far more than a few shuffle rounds, bank conflicts
multiply shared wavefronts, and vectorization divides instruction
counts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.hardware.instructions import Instruction, InstructionKind
from repro.hardware.spec import GpuSpec


#: Instruction kind (by value) -> how its cycles are priced: a
#: memory class, or the :class:`GpuSpec` field of a fixed price.
_PRICING_CLASS: Dict[str, str] = {
    InstructionKind.SHARED_LOAD.value: "shared",
    InstructionKind.SHARED_STORE.value: "shared",
    InstructionKind.LDMATRIX.value: "shared",
    InstructionKind.STMATRIX.value: "shared",
    InstructionKind.GLOBAL_LOAD.value: "global",
    InstructionKind.GLOBAL_STORE.value: "global",
    InstructionKind.MMA.value: "mma",
    InstructionKind.SHUFFLE.value: "shuffle_cycles",
    InstructionKind.BARRIER.value: "barrier_cycles",
    InstructionKind.BYTE_PERM.value: "alu_cycles",
    InstructionKind.ALU.value: "alu_cycles",
}


@dataclass
class CostModel:
    """Prices instruction streams on a given platform."""

    spec: GpuSpec

    def instruction_cycles(self, inst: Instruction) -> int:
        """Cycles attributed to one :class:`Instruction` record."""
        spec = self.spec
        pricing = _PRICING_CLASS[inst.kind._value_]
        if pricing == "shared":
            if inst.dependent:
                # Address depends on a just-produced value: pay the
                # full access latency per wavefront, unpipelined.
                per = (
                    spec.issue_cycles
                    + spec.smem_access_cycles * inst.wavefronts
                )
            else:
                # Independent accesses pipeline: issue plus the bank
                # service time of each wavefront.
                per = spec.issue_cycles + 2 * inst.wavefronts
        elif pricing == "global":
            lanes_bytes = spec.warp_size * inst.vector_bits // 8
            transactions = max(1, lanes_bytes // 128)
            per = spec.issue_cycles + spec.gmem_transaction_cycles * transactions
        elif pricing == "mma":
            # ``wavefronts`` scales for wide tiles (wgmma/mfma) so the
            # per-MAC throughput stays comparable across flavors.
            per = 16 * inst.wavefronts
        else:
            per = getattr(spec, pricing)
        return per * inst.count

    def total_cycles(self, instructions: Iterable[Instruction]) -> int:
        """Sum of instruction cycles over a stream."""
        return sum(self.instruction_cycles(i) for i in instructions)

    def histogram(
        self, instructions: Iterable[Instruction]
    ) -> Dict[str, int]:
        """Instruction counts by kind (the Table 4 / Table 6 columns)."""
        out: Dict[str, int] = {}
        for inst in instructions:
            out[inst.kind.value] = out.get(inst.kind.value, 0) + inst.count
        return out

    def bill(
        self, instructions: Iterable[Instruction]
    ) -> Tuple[int, Dict[str, float]]:
        """Total cycles and cycles per instruction kind, in one pass.

        The observability face of the model: per-kind totals feed the
        pipeline's cost-summary diagnostics, so a regression shows up
        as "shared_load cycles doubled" rather than a bare number.
        Cycles are ints, so the total is exact; the per-kind values
        are floats, summed in stream order.
        """
        total = 0
        by_kind: Dict[str, float] = {}
        for inst in instructions:
            cycles = self.instruction_cycles(inst)
            total += cycles
            kind = inst.kind._value_
            by_kind[kind] = by_kind.get(kind, 0.0) + cycles
        return total, by_kind


# ----------------------------------------------------------------------
# Memoized models
# ----------------------------------------------------------------------
_MODELS: Dict[GpuSpec, CostModel] = {}
_MODELS_LOCK = threading.Lock()


def cost_model(spec: GpuSpec) -> CostModel:
    """The process-wide :class:`CostModel` of one platform.

    The model is stateless (a pure pricing function over a frozen
    spec), so every trace on the same :class:`GpuSpec` shares one
    instance instead of constructing a fresh model per
    ``Trace.cycles()`` call.  First insertion wins under races.
    """
    model = _MODELS.get(spec)
    if model is None:
        with _MODELS_LOCK:
            model = _MODELS.setdefault(spec, CostModel(spec))
    return model
