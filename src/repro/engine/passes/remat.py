"""Backward rematerialization (the backward pass of Section 4.4).

"In the backward pass, layout conversions are rematerialized in
reverse through the definition chain.  If the instructions along the
chain are inexpensive, the entire operation chain may be
rematerialized to eliminate layout conversions."  The chains handled
are single-use loads, optionally followed by single-use single-input
elementwise ops; the rewrite is taken only when the priced
alternative is no worse — priced by the same
:class:`~repro.gpusim.opcost.OpCostModel` the lowering pass charges
with, so the decision and the bill can never disagree.  A conversion
is planned only when its price can decide (see :meth:`run`).

The pass is idempotent: it runs to a fixed point, so a second run
finds no eliminable conversions (``tests/test_pipeline.py`` holds
that line).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.ir import Op, OpKind
from repro.engine.pipeline import CompilationContext, Pass, PassDiagnostics


class BackwardRematerialization(Pass):
    """Eliminate conversions whose producer chain can be cheaply
    re-anchored in the destination layout."""

    name = "backward-remat"

    def __init__(self, require_descriptor: bool = False):
        #: Legacy can only re-anchor layouts it can name, so its
        #: pipeline constructs this pass with ``require_descriptor``.
        self.require_descriptor = require_descriptor

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        graph = ctx.graph
        cost = ctx.cost
        changed = True
        while changed:
            changed = False
            diag.bump("rounds")
            users = graph.users_map()
            producers = graph.producers_map()
            for convert in list(graph.ops):
                if convert.kind != OpKind.CONVERT_LAYOUT:
                    continue
                if convert.output is None or convert.output.layout is None:
                    continue
                chain = self._remat_chain(users, producers, convert)
                if chain is None:
                    continue
                load, middles = chain
                dst_layout = convert.output.layout
                dst_desc = convert.output.descriptor
                if self.require_descriptor and dst_desc is None:
                    continue  # legacy can only anchor layouts it names
                load_cost = cost.global_cycles(
                    load.output.layout,
                    load.output.descriptor,
                    load.output.shape,
                    load.output.dtype,
                )
                new_cost = cost.global_cycles(
                    dst_layout,
                    dst_desc,
                    load.output.shape,
                    load.output.dtype,
                )
                # Cycles are never negative, so only a dearer re-anchored
                # load leaves the decision to the conversion's price: a
                # conversion is planned then and only then, and one the
                # planner would refuse can go when the load costs no more.
                source, replaced = convert.inputs[0], convert.output
                if new_cost > load_cost and new_cost > load_cost + (
                    cost.conversion_cycles(source.layout, dst_layout, source.dtype)
                ):
                    diag.bump("chains_rejected_by_cost")
                    continue
                # Re-anchor the chain and delete the conversion.
                load.output.layout = dst_layout
                load.output.descriptor = dst_desc
                for mid in middles:
                    mid.output.layout = dst_layout
                    mid.output.descriptor = dst_desc
                # The conversion was its source's only user (checked
                # by the chain walk): the source takes over its users.
                consumers = users.pop(id(replaced), [])
                for op in consumers:
                    op.inputs = [source if v is replaced else v for v in op.inputs]
                users[id(source)] = consumers
                graph.ops.remove(convert)
                diag.bump("conversions_eliminated")
                changed = True

    @staticmethod
    def _remat_chain(
        users: Dict[int, List[Op]], producers: Dict[int, Op], convert: Op
    ) -> Optional[Tuple[Op, List[Op]]]:
        """(load, intermediate elementwise ops) feeding a conversion,
        or None when the chain is not rematerializable.  ``users`` and
        ``producers`` are the graph's
        :meth:`~repro.engine.ir.Graph.users_map` and
        :meth:`~repro.engine.ir.Graph.producers_map`; a rewrite leaves
        every chain's producers as they were, so one map serves a
        round."""
        middles: List[Op] = []
        current = convert.inputs[0]
        while True:
            if len(users.get(id(current), ())) != 1:
                return None
            producer = producers.get(id(current))
            if producer is None:
                return None
            if producer.kind == OpKind.LOAD:
                return producer, middles
            if producer.kind == OpKind.ELEMENTWISE and len(producer.inputs) == 1:
                middles.append(producer)
                current = producer.inputs[0]
                continue
            return None


__all__ = ["BackwardRematerialization"]
