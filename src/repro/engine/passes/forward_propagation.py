"""Forward layout propagation (the forward half of Section 4.4).

Walks the graph in program order: anchor layouts flow forward through
shape and compute ops via the transfer functions of
:mod:`repro.engine.propagate`, and ``convert_layout`` ops appear
wherever an operand arrives in the wrong layout.  Conversions between
equivalent layouts are elided — only the linear mode can compare
layouts across kinds (Section 6.2's welford no-op), which is captured
by the :class:`PropagationPolicy` the pass is constructed with rather
than mode branches in the walk itself.

The pass *replaces* ``ctx.graph`` with the rebuilt op list (values
are shared and rewired in place, matching how the engine has always
taken ownership of its input graph).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.engine.ir import Graph, Op, OpKind, Value
from repro.engine.pipeline import CompilationContext, Pass, PassDiagnostics
from repro.engine.propagate import (
    collapse_dims_to_one,
    forward_descriptor,
    forward_layout,
)
from repro.core.layout import LinearLayout


class PropagationPolicy:
    """The mode-specific decisions of the forward pass."""

    mode: str = "abstract"

    def try_elide(self, ctx, value: Value, layout, desc) -> bool:
        """True when ``value`` can be used as-is (no conversion).

        May raise :class:`~repro.core.errors.LegacyUnsupportedError`
        when the conversion that would otherwise be inserted is
        inexpressible.
        """
        raise NotImplementedError

    def check_reduce(self, ctx, value: Value) -> None:
        """Reject reductions the mode cannot lower."""

    def check_scan(self, ctx, op: Op, value: Value) -> None:
        """Reject scans the mode cannot lower."""

    def trans_input(self, ctx, op: Op, value: Value, convert_to):
        """(value, descriptor) to feed a transpose — a hook because
        legacy must bounce MMA-family layouts through blocked."""
        return value, value.descriptor


class LinearPropagationPolicy(PropagationPolicy):
    """Linear mode: elision by F2 equivalence, no capability gaps."""

    mode = "linear"

    def try_elide(self, ctx, value: Value, layout, desc) -> bool:
        return value.layout.equivalent(layout)


class LegacyPropagationPolicy(PropagationPolicy):
    """Legacy mode: named-descriptor comparisons and capability checks."""

    mode = "legacy"

    def _blocked(self, ctx, value: Value):
        return ctx.anchors.blocked_anchor(value.shape, value.dtype)[0]

    def try_elide(self, ctx, value: Value, layout, desc) -> bool:
        if (
            value.descriptor is not None
            and desc is not None
            and ctx.legacy.can_compare(value.descriptor, desc)
            and value.layout == layout
        ):
            return True
        ctx.legacy.check_conversion(
            value.descriptor
            if value.descriptor is not None
            else self._blocked(ctx, value),
            desc if desc is not None else self._blocked(ctx, value),
        )
        return False

    def check_reduce(self, ctx, value: Value) -> None:
        ctx.legacy.check_reduction(
            value.descriptor
            if value.descriptor is not None
            else self._blocked(ctx, value)
        )

    def check_scan(self, ctx, op: Op, value: Value) -> None:
        free = value.layout.free_variable_masks()
        has_dup = any(free.values())
        ctx.legacy.check_scan(
            value.descriptor
            if value.descriptor is not None
            else self._blocked(ctx, value),
            op.attrs.get("reverse", False),
            has_dup,
        )

    def trans_input(self, ctx, op: Op, value: Value, convert_to):
        desc = value.descriptor
        if forward_descriptor(op, desc) is None:
            # Legacy cannot transpose MMA-family layouts: bounce
            # through a blocked layout first.
            bdesc, blayout = ctx.anchors.blocked_anchor(value.shape, value.dtype)
            value = convert_to(value, blayout, bdesc)
            desc = bdesc
        return value, desc


class ForwardPropagation(Pass):
    """Assign layouts op by op, inserting conversions at conflicts."""

    name = "forward-propagation"

    def __init__(self, policy: PropagationPolicy):
        self.policy = policy

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        graph = ctx.graph
        # Users of a value follow its producer, so the input graph's
        # users of an op's output are unchanged when the op is reached.
        users = graph.users_map()
        out = Graph()
        out.values = graph.values

        def convert_to(value: Value, layout, desc) -> Value:
            """Insert a convert_layout if the layouts truly differ."""
            if value.layout is None:
                value.layout = layout
                value.descriptor = desc
                diag.bump("layouts_assigned")
                return value
            if self.policy.try_elide(ctx, value, layout, desc):
                diag.bump("conversions_elided")
                return value
            new_val = out.new_value(value.shape, value.dtype)
            new_val.layout = layout
            new_val.descriptor = desc
            out.add(Op(OpKind.CONVERT_LAYOUT, [value], new_val, {}))
            diag.bump("conversions_inserted")
            return new_val

        for op in graph.ops:
            kind = op.kind
            if kind == OpKind.LOAD:
                # Anchored by the anchor-selection pass.
                out.add(op)
            elif kind == OpKind.STORE:
                value = op.inputs[0]
                desc, layout = ctx.anchors.blocked_anchor(value.shape, value.dtype)
                value = convert_to(value, layout, desc)
                out.add(Op(OpKind.STORE, [value], None, op.attrs))
            elif kind == OpKind.ELEMENTWISE:
                first = op.inputs[0]
                new_inputs = [first]
                for other in op.inputs[1:]:
                    new_inputs.append(convert_to(other, first.layout, first.descriptor))
                op.inputs = new_inputs
                op.output.layout = first.layout
                op.output.descriptor = first.descriptor
                out.add(op)
            elif kind == OpKind.DOT:
                self._propagate_dot(ctx, op, out, convert_to, diag)
            elif kind == OpKind.REDUCE:
                value = op.inputs[0]
                self.policy.check_reduce(ctx, value)
                op.output.layout = forward_layout(op, value.layout)
                op.output.descriptor = forward_descriptor(op, value.descriptor)
                out.add(op)
            elif kind == OpKind.SCAN:
                value = op.inputs[0]
                self.policy.check_scan(ctx, op, value)
                op.output.layout = value.layout
                op.output.descriptor = value.descriptor
                out.add(op)
            elif kind == OpKind.GATHER:
                src, index = op.inputs
                index = convert_to(index, src.layout, src.descriptor)
                op.inputs = [src, index]
                op.output.layout = src.layout
                op.output.descriptor = src.descriptor
                out.add(op)
            elif kind == OpKind.BROADCAST:
                # Broadcast into the consumer's layout and convert the
                # *small* input tensor instead (forward half of the
                # remat story; both compilers do this).
                value = op.inputs[0]
                target = self._consumer_layout(users, op)
                if target is not None:
                    axes = [
                        i
                        for i, (old, new) in enumerate(zip(value.shape, op.attrs["shape"]))
                        if old == 1 and new > 1
                    ]
                    small = collapse_dims_to_one(target, axes)
                    value = convert_to(value, small, None)
                    op.inputs = [value]
                    op.output.layout = target
                    op.output.descriptor = None
                    out.add(op)
                else:
                    op.output.layout = forward_layout(op, value.layout)
                    op.output.descriptor = forward_descriptor(op, value.descriptor)
                    out.add(op)
            elif kind in (
                OpKind.TRANS,
                OpKind.RESHAPE,
                OpKind.EXPAND_DIMS,
                OpKind.JOIN,
                OpKind.SPLIT,
            ):
                value = op.inputs[0]
                desc = value.descriptor
                if kind == OpKind.TRANS:
                    value, desc = self.policy.trans_input(ctx, op, value, convert_to)
                    op.inputs = [value]
                op.output.layout = forward_layout(op, value.layout)
                op.output.descriptor = forward_descriptor(op, desc)
                out.add(op)
            elif kind == OpKind.CONVERT_LAYOUT:
                out.add(op)  # pre-inserted by a kernel model
            else:  # pragma: no cover
                raise ValueError(f"unhandled op {kind}")
        ctx.graph = out

    def _propagate_dot(
        self,
        ctx: CompilationContext,
        op: Op,
        out: Graph,
        convert_to,
        diag: PassDiagnostics,
    ) -> None:
        parent, accumulator, operands = ctx.anchors.dot_anchors(*op.inputs)
        op.output.layout = accumulator
        op.output.descriptor = parent
        diag.bump("dot_anchors_assigned")
        new_inputs = []
        for operand, (desc, layout) in zip(op.inputs, operands):
            if desc is None:
                # Operand consumed from shared memory: stage it.
                staged = out.new_value(operand.shape, operand.dtype)
                staged.layout = operand.layout
                staged.descriptor = operand.descriptor
                out.add(Op(OpKind.LOCAL_STORE, [operand], staged, {}))
                diag.bump("operands_staged")
                new_inputs.append(staged)
            else:
                new_inputs.append(convert_to(operand, layout, desc))
        op.inputs = new_inputs
        out.add(op)

    @staticmethod
    def _consumer_layout(users: Dict[int, List[Op]], op: Op) -> Optional[LinearLayout]:
        """The layout a broadcast's consumer already fixed for peers.

        Scans users of the broadcast result (``users`` is the input
        graph's :meth:`~repro.engine.ir.Graph.users_map`) for an
        operand of the same shape whose layout is known (typically
        the tensor the broadcast value is combined with).
        """
        for user in users.get(id(op.output), ()):
            for other in user.inputs:
                if other is op.output:
                    continue
                if other.layout is not None and tuple(other.shape) == tuple(op.attrs["shape"]):
                    return other.layout
        return None


__all__ = [
    "ForwardPropagation",
    "LegacyPropagationPolicy",
    "LinearPropagationPolicy",
    "PropagationPolicy",
]
