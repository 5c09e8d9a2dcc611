"""Execution traces: the instruction stream a plan produced."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.hardware.cost import CostModel, cost_model
from repro.hardware.instructions import Instruction, InstructionKind, instruction
from repro.hardware.spec import GpuSpec


@dataclass
class Trace:
    """Instruction stream plus derived statistics."""

    spec: GpuSpec
    instructions: List[Instruction] = field(default_factory=list)

    def emit(
        self,
        kind: InstructionKind,
        vector_bits: int = 32,
        count: int = 1,
        wavefronts: int = 1,
        note: str = "",
        dependent: bool = False,
    ) -> None:
        """Append the shared record of these fields (no-op for
        count <= 0)."""
        if count <= 0:
            return
        self.instructions.append(
            instruction(kind, vector_bits, count, wavefronts, note, dependent)
        )

    def cost_model(self) -> CostModel:
        """The platform's cost model — one shared instance per spec.

        Memoized through :func:`repro.hardware.cost.cost_model`, so
        repeated ``cycles()``/``histogram()`` calls (every
        ``CompiledKernel.summary()``, every benchmark row) reuse one
        model instead of constructing a fresh one per call.
        """
        return cost_model(self.spec)

    def cycles(self) -> float:
        """Total cycles under the platform's cost model."""
        return self.cost_model().total_cycles(self.instructions)

    def histogram(self) -> Dict[str, int]:
        """Instruction counts by mnemonic."""
        return self.cost_model().histogram(self.instructions)

    def count(self, kind: InstructionKind) -> int:
        """Total count of one instruction kind."""
        return sum(
            i.count for i in self.instructions if i.kind == kind
        )
