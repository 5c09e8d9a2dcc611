"""The engine's one entry point over the pass pipeline.

:func:`compile` turns a kernel graph into a :class:`CompiledKernel`
by running the standard pass pipeline of
:mod:`repro.engine.pipeline`:

1. **Anchor selection** — loads, stores, and dots receive their
   preferred layouts from the
   :class:`~repro.engine.passes.anchor_selection.AnchorCatalog`.
2. **Forward propagation** — layouts flow forward through
   shape/compute ops, and ``convert_layout`` ops appear wherever an
   operand arrives in the wrong layout.  Conversions between
   equivalent layouts are skipped — only the linear mode can compare
   layouts across kinds (Section 6.2's welford no-op).
3. **Backward rematerialization** — the backward pass of Section 4.4:
   a conversion whose producer chain is inexpensive (loads and
   elementwise ops with single uses) is eliminated by re-anchoring
   the chain in the destination layout, when the priced alternative
   is no worse.
4. **Lowering & cost** — every op is priced under the platform's
   unified cost model (:mod:`repro.gpusim.opcost`); conversions lower
   through :func:`~repro.codegen.conversion.plan_conversion` (legacy
   mode: padded staging, no warp shuffles, no ldmatrix, no duplicate
   elimination).

A :class:`LegacyUnsupportedError` during compilation marks the kernel
as *failed* — that is how the pass-rate columns of Tables 4 and 5 are
measured rather than hard-coded.

Each pass leaves a :class:`~repro.engine.pipeline.PassDiagnostics`
record on the compiled kernel (``CompiledKernel.diagnostics``); see
``docs/ARCHITECTURE.md`` for the pipeline contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.codegen.plan import ConversionPlan
from repro.core.errors import LegacyUnsupportedError
from repro.engine.ir import Graph, OpKind
from repro.engine.pipeline import (
    CompilationContext,
    PassDiagnostics,
    PassManager,
    standard_passes,
)
from repro.gpusim.trace import Trace
from repro.hardware.instructions import InstructionKind
from repro.hardware.spec import GpuSpec, RTX4090
from repro.obs import core as _obs


@dataclass
class CompiledKernel:
    """The engine's output: the final graph plus cost accounting."""

    graph: Graph
    trace: Trace
    mode: str
    error: Optional[str] = None
    conversions: List[ConversionPlan] = field(default_factory=list)
    #: Per-pass instrumentation, in pipeline order (empty when the
    #: kernel was built by hand rather than compiled).
    diagnostics: List[PassDiagnostics] = field(default_factory=list)

    @property
    def programs(self) -> List[object]:
        """The conversions' warp programs (unified instruction IR),
        parallel to ``conversions``."""
        return [plan.program for plan in self.conversions]

    @property
    def ok(self) -> bool:
        """True iff compilation succeeded (no legacy failure)."""
        return self.error is None

    def cycles(self) -> float:
        """Simulated cycles of the compiled kernel."""
        return self.trace.cycles()

    def op_counts(self) -> Dict[str, int]:
        """The Table 6 columns: convert / local_load / local_store."""
        return {
            "convert_layout": self.graph.count(OpKind.CONVERT_LAYOUT),
            "local_load": self.trace.count(InstructionKind.SHARED_LOAD)
            + self.trace.count(InstructionKind.LDMATRIX),
            "local_store": self.trace.count(InstructionKind.SHARED_STORE)
            + self.trace.count(InstructionKind.STMATRIX),
        }

    def summary(self) -> Dict[str, object]:
        """A bit-comparable digest of the compilation.

        Everything two compilations must agree on to be considered
        identical: success, simulated cycles, the Table 6 op counts,
        and every conversion's serialized warp program.  The stress
        tests compare it against serial compilation.
        """
        from repro.program.serialize import program_to_dict

        return {
            "mode": self.mode,
            "ok": self.ok,
            "error": self.error,
            "cycles": self.cycles() if self.ok else None,
            "op_counts": self.op_counts() if self.ok else None,
            "num_conversions": len(self.conversions),
            "programs": [program_to_dict(p) for p in self.programs],
        }


#: One standard pipeline per mode.  Passes and their policies are
#: stateless configuration (everything a compile changes lives on its
#: context), so every compile of a mode, on any thread, runs the same one.
_PIPELINES: Dict[str, PassManager] = {}


def _standard_pipeline(mode: str) -> PassManager:
    manager = _PIPELINES.get(mode)
    if manager is None:
        manager = _PIPELINES.setdefault(mode, PassManager(standard_passes(mode)))
    return manager


def compile(
    graph: Graph,
    spec: GpuSpec = RTX4090,
    mode: str = "linear",
    num_warps: int = 4,
    passes: Optional[PassManager] = None,
) -> CompiledKernel:
    """Compile a kernel graph in ``linear`` or ``legacy`` mode.

    Takes ownership of ``graph``: ops are rewired in place as
    conversions are inserted.  Rebuild the graph (or keep the builder
    function) to compile again in another mode.

    Anchor layouts, conversion plans, and their priced instruction
    streams are memoized in :mod:`repro.cache`, so recompiling the
    same graph shape is dominated by graph traversal rather than F2
    planning (see ``docs/CACHING.md``); results are identical with
    caching disabled.

    ``passes`` overrides the mode's standard pipeline (e.g. a
    pipeline without rematerialization) and runs as given; without
    it, every compile of a mode runs one shared standard pipeline.
    A pipeline that sets no trace (no
    :class:`~repro.engine.passes.lower.LowerToPlans`) raises
    :class:`ValueError`.

    Thread safety: a compile holds no state outside its fresh
    :class:`CompilationContext` (the shared pipeline's passes keep
    none), so many threads may compile concurrently, each owning its
    ``graph``.  The shared :mod:`repro.cache` layer is lock-protected;
    see ``docs/SERVING.md`` for the full contract.
    """
    # Rejects an unknown mode or an invalid warp count.
    ctx = CompilationContext.create(graph, spec, mode, num_warps)
    manager = passes if passes is not None else _standard_pipeline(mode)
    with _obs.span(
        "compile:kernel", mode=mode, platform=spec.name, num_warps=num_warps
    ) as sp:
        try:
            manager.run(ctx)
            trace = ctx.lowered_trace("compile")
            sp.set_attrs(
                {"ok": True, "cycles": ctx.cycles,
                 "conversions": len(ctx.conversions)}
            )
            _obs.count(
                "engine.compiles", 1, mode=mode, platform=spec.name, ok=True
            )
            return CompiledKernel(
                graph=ctx.graph,
                trace=trace,
                mode=mode,
                conversions=ctx.conversions,
                diagnostics=ctx.diagnostics,
            )
        except LegacyUnsupportedError as exc:
            sp.set_attrs({"ok": False, "error": str(exc)})
            _obs.count(
                "engine.compiles", 1, mode=mode, platform=spec.name, ok=False
            )
            return CompiledKernel(
                graph=graph,
                trace=Trace(spec),
                mode=mode,
                error=str(exc),
                diagnostics=ctx.diagnostics,
            )
