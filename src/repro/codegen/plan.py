"""Executable conversion plans.

A :class:`ConversionPlan` records the planner's decision and the warp
program (:class:`~repro.program.ir.WarpProgram`) that carries it out:
the program the simulated GPU (:mod:`repro.gpusim`) executes and the
cost model prices.  Every instruction carries explicit per-lane
routing tables — nothing is symbolic at this point, mirroring how the
real compiler has fully lowered the conversion to PTX by this stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List

from repro.core.layout import LinearLayout

if TYPE_CHECKING:
    from repro.program.ir import WarpProgram


@dataclass
class ConversionPlan:
    """A fully lowered layout conversion.

    ``kind`` records the decision the planner made ("noop",
    "register", "shuffle", "shared"); ``src``/``dst`` keep the layouts
    for verification; ``program`` is what executes, labelled with
    ``kind``.  Plans are cached and shared, so the program — and the
    interpreter scratch it carries — is amortized across compilations.
    """

    kind: str
    src: LinearLayout
    dst: LinearLayout
    program: WarpProgram
    shared_bytes: int = 0
    notes: List[str] = field(default_factory=list)

    def num_shuffle_rounds(self) -> int:
        """How many shuffle rounds the plan contains."""
        from repro.program.ir import Opcode

        return sum(1 for i in self.program if i.opcode == Opcode.SHFL)

    def describe(self) -> str:
        """A multi-line, human-readable rendering of the plan.

        Pass diagnostics and test failures print this instead of the
        raw dataclass dump (whose routing tables run to thousands of
        characters for real conversions).
        """
        src_dims = "x".join(
            str(self.src.out_dim_size(d)) for d in self.src.out_dims
        )
        dst_dims = "x".join(
            str(self.dst.out_dim_size(d)) for d in self.dst.out_dims
        )
        header = f"ConversionPlan[{self.kind}] {src_dims} -> {dst_dims}"
        details = []
        if self.shared_bytes:
            details.append(f"{self.shared_bytes} shared bytes")
        if self.notes:
            details.append("; ".join(self.notes))
        if details:
            header += f" ({', '.join(details)})"
        lines = [header]
        for i, instr in enumerate(self.program):
            lines.append(f"  {i}: {instr.describe()}")
        if not self.program.instrs:
            lines.append("  (no instructions)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        shared = (
            f", {self.shared_bytes}B shared" if self.shared_bytes else ""
        )
        return (
            f"<ConversionPlan {self.kind}: {len(self.program)} instrs, "
            f"{self.num_shuffle_rounds()} shuffle rounds{shared}>"
        )
