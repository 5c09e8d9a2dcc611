"""Triton's layout engine, reproduced over a mini tensor IR.

``KernelBuilder`` writes the op graph a Triton kernel lowers to; the
pass pipeline (:mod:`repro.engine.pipeline`) compiles it: anchor
selection assigns hardware-preferred layouts (loads/stores get blocked
layouts, ``dot`` gets the platform's MMA layout), forward propagation
flows layouts through shape operations and inserts ``convert_layout``
ops at conflicts (removing conversions between equivalent layouts —
linear mode only; legacy cannot compare layouts across kinds),
backward rematerialization re-anchors cheap producer chains, and
lowering prices every op under the unified cost model.

:func:`compile` is the one entry point.  ``PassManager`` and
``CompilationContext`` expose the pipeline for custom pass sequences,
which ``compile(..., passes=...)`` runs.  See ``docs/ARCHITECTURE.md``.
"""

from repro.engine.ir import Graph, Op, OpKind, Value
from repro.engine.builder import KernelBuilder
from repro.engine.engine import CompiledKernel, compile
from repro.engine.pipeline import (
    CompilationContext,
    Pass,
    PassDiagnostics,
    PassManager,
    standard_passes,
)

__all__ = [
    "CompilationContext",
    "CompiledKernel",
    "Graph",
    "KernelBuilder",
    "Op",
    "OpKind",
    "Pass",
    "PassDiagnostics",
    "PassManager",
    "Value",
    "compile",
    "standard_passes",
]
