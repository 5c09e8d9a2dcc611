"""Cost summary: price the finished trace and record the bill.

The final pipeline stage.  It adds no instructions — pricing of
individual ops happened during lowering — but bills the trace under
the platform's :class:`~repro.hardware.cost.CostModel` in one pass,
recording the total and the per-kind cycle breakdown in its
diagnostics: every compilation gets a built-in profile ("80% of
cycles are shared_load") without re-running anything.
"""

from __future__ import annotations

from repro.engine.pipeline import CompilationContext, Pass, PassDiagnostics


class CostSummary(Pass):
    """Total simulated cycles plus a per-kind cycle breakdown."""

    name = "cost-summary"

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        instructions = ctx.lowered_trace(self.name).instructions
        ctx.cycles, by_kind = ctx.cost.instruction_model.bill(instructions)
        diag.bump("cycles", ctx.cycles)
        diag.bump("instructions", len(instructions))
        diag.bump("conversions", len(ctx.conversions))
        for kind, cycles in sorted(by_kind.items()):
            diag.bump(f"cycles[{kind}]", cycles)


__all__ = ["CostSummary"]
