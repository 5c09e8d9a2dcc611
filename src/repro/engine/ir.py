"""The mini tensor IR the layout engine operates on.

Ops mirror the Triton operations the paper's Section 4.4 enumerates:
computation (elementwise, ``dot``, ``reduce``), memory (``load``,
``store``, ``local_load``, ``local_store``), layout conversion
(``convert_layout``), and shape ops (``trans``, ``reshape``, ``join``,
``split``, ``expand_dims``, ``broadcast``), plus ``gather``
(Section 5.5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.layout import LinearLayout
from repro.mxfp.types import DType


class OpKind(enum.Enum):
    """The operation kinds of the mini IR (Section 4.4's categories)."""
    LOAD = "load"
    STORE = "store"
    LOCAL_LOAD = "local_load"
    LOCAL_STORE = "local_store"
    CONVERT_LAYOUT = "convert_layout"
    ELEMENTWISE = "elementwise"
    DOT = "dot"
    REDUCE = "reduce"
    GATHER = "gather"
    TRANS = "trans"
    RESHAPE = "reshape"
    EXPAND_DIMS = "expand_dims"
    BROADCAST = "broadcast"
    JOIN = "join"
    SPLIT = "split"
    SCAN = "scan"
    CONSTANT = "constant"


@dataclass
class Value:
    """An SSA tensor value.

    A value does not know the op that produces it: ops point at their
    values and never back, so a dropped graph frees by reference
    counting.  A pass that walks definitions builds
    :meth:`Graph.producers_map` once per sweep.
    """

    vid: int
    shape: Tuple[int, ...]
    dtype: DType
    layout: Optional[LinearLayout] = None
    #: Descriptor (BlockedLayout / NvidiaMmaLayout / ...) when known —
    #: the legacy system reasons about these, not about linear maps.
    descriptor: Optional[object] = None

    def __repr__(self) -> str:
        return f"%{self.vid}: {list(self.shape)} x {self.dtype}"


@dataclass
class Op:
    """One IR operation."""

    kind: OpKind
    inputs: List[Value]
    output: Optional[Value]
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:
        ins = ", ".join(f"%{v.vid}" for v in self.inputs)
        out = f"%{self.output.vid} = " if self.output else ""
        return f"{out}{self.kind.value}({ins}) {self.attrs or ''}"


@dataclass
class Graph:
    """A straight-line kernel body (ops in program order)."""

    ops: List[Op] = field(default_factory=list)
    values: List[Value] = field(default_factory=list)

    def new_value(self, shape: Tuple[int, ...], dtype: DType) -> Value:
        """Allocate a fresh SSA value of the given shape/dtype."""
        v = Value(vid=len(self.values), shape=tuple(shape), dtype=dtype)
        self.values.append(v)
        return v

    def add(self, op: Op) -> Op:
        """Append an op in program order."""
        self.ops.append(op)
        return op

    def count(self, kind: OpKind) -> int:
        """Number of ops of one kind in the graph."""
        return sum(1 for op in self.ops if op.kind == kind)

    def users_map(self) -> Dict[int, List[Op]]:
        """The ops consuming each value, keyed by ``id(value)``.

        Built in one sweep over the ops, in op order; values without
        users are absent.  Values are SSA objects, so they are keyed by
        identity.  An op using a value twice appears once.
        """
        users: Dict[int, List[Op]] = {}
        for op in self.ops:
            for value in op.inputs:
                ops = users.setdefault(id(value), [])
                if not ops or ops[-1] is not op:
                    ops.append(op)
        return users

    def producers_map(self) -> Dict[int, Op]:
        """The op defining each value, keyed by ``id(value)``.

        Built in one sweep over the ops, like :meth:`users_map`;
        values no op defines (kernel arguments) are absent.
        """
        return {
            id(op.output): op for op in self.ops if op.output is not None
        }

    def __repr__(self) -> str:
        return "\n".join(repr(op) for op in self.ops)
