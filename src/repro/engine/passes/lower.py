"""Lowering: every op becomes priced instructions (Section 4.4's end).

Walks the propagated graph and asks the context's
:class:`~repro.gpusim.opcost.OpCostModel` — the single pricing
authority — what instructions each op turns into.  Conversions lower
through :func:`~repro.codegen.conversion.plan_conversion` under the
policy's planner options (legacy: padded staging, no warp shuffles,
no ldmatrix, no duplicate elimination) and their plans are kept on
the context for inspection.

Shape ops are register no-ops by construction and emit nothing.
"""

from __future__ import annotations

from collections import Counter

from repro.engine.ir import OpKind
from repro.engine.pipeline import CompilationContext, Pass, PassDiagnostics
from repro.gpusim.trace import Trace
from repro.hardware.instructions import InstructionKind
from repro.obs import core as _obs


class LowerToPlans(Pass):
    """Emit the instruction trace and conversion plans."""

    name = "lower-to-plans"

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        cost = ctx.cost
        trace = Trace(ctx.spec)
        for op in ctx.graph.ops:
            kind = op.kind
            if kind == OpKind.LOAD:
                cost.price_global(op.output, trace, InstructionKind.GLOBAL_LOAD)
            elif kind == OpKind.STORE:
                cost.price_global(op.inputs[0], trace, InstructionKind.GLOBAL_STORE)
            elif kind == OpKind.CONVERT_LAYOUT:
                src = op.inputs[0]
                if src.layout is None or op.output.layout is None:
                    continue
                plan, instructions, _ = cost.priced_conversion(
                    src.layout, op.output.layout, src.dtype
                )
                ctx.conversions.append(plan)
                trace.instructions.extend(instructions)
                diag.bump("conversions_lowered")
                diag.bump("program_instructions", len(plan.program))
            elif kind == OpKind.ELEMENTWISE:
                cost.price_elementwise(op, trace)
            elif kind == OpKind.LOCAL_STORE:
                cost.price_local_store(op, trace)
            elif kind == OpKind.DOT:
                cost.price_dot(op, trace)
            elif kind == OpKind.REDUCE:
                cost.price_reduce(op, trace)
            elif kind == OpKind.SCAN:
                cost.price_scan(op, trace)
            elif kind == OpKind.GATHER:
                cost.price_gather(op, trace)
            # Shape ops are register no-ops by construction.
            diag.bump("ops_lowered")
        ctx.trace = trace
        diag.bump("instructions_emitted", len(trace.instructions))
        if _obs.is_enabled():
            # One counter update per plan kind, not per conversion.
            kinds = Counter(plan.kind for plan in ctx.conversions)
            for kind, n in kinds.items():
                _obs.count("engine.conversions", n, kind=kind, mode=ctx.mode)


__all__ = ["LowerToPlans"]
