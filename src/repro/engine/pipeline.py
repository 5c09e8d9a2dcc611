"""The pass-based compilation pipeline (Section 4.4 as architecture).

The paper describes the layout engine as a sequence of phases —
anchor selection, forward propagation, backward rematerialization,
lowering — and this module makes that structure explicit the way
production layout compilers do: a :class:`PassManager` runs discrete
:class:`Pass` objects over a shared :class:`CompilationContext`, and
every pass leaves a :class:`PassDiagnostics` record (wall time,
structured counters, cache-hit attribution) behind.

The legacy/linear difference is declarative: :func:`standard_passes`
returns a different pass list per mode (different propagation policy,
different rematerialization guard, different cost policy) instead of
``if mode`` branches inside one monolithic class.  Custom pipelines
are first-class — build a :class:`PassManager` from any pass sequence
(e.g. drop :class:`BackwardRematerialization
<repro.engine.passes.remat.BackwardRematerialization>` to measure what
the backward pass buys).

:func:`repro.engine.compile` runs a mode's standard pipeline (or the
one it is given); see ``docs/ARCHITECTURE.md`` for the full pipeline
contract and how to add a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import cache as _cache
from repro.codegen.plan import ConversionPlan
from repro.obs import core as _obs
from repro.engine.ir import Graph
from repro.gpusim.opcost import OpCostModel, op_cost_model, policy_for_mode
from repro.gpusim.trace import Trace
from repro.hardware.spec import GpuSpec, RTX4090, check_num_warps
from repro.layouts.legacy import LegacyLayoutSystem


@dataclass
class PassDiagnostics:
    """What one pass did: timing, counters, cache behaviour, notes.

    ``counters`` is pass-specific but follows a shared vocabulary
    (``anchors_assigned``, ``conversions_inserted``,
    ``conversions_eliminated``, ``ops_lowered``, ``cycles`` — see
    ``docs/ARCHITECTURE.md`` for the schema); ``cache_hits`` /
    ``cache_misses`` are the :mod:`repro.cache` lookups attributed to
    the pass.
    """

    name: str
    wall_time_ms: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    notes: List[str] = field(default_factory=list)

    def bump(self, counter: str, amount: float = 1) -> None:
        """Increment one counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot (for reports and logs)."""
        return {
            "name": self.name,
            "wall_time_ms": round(self.wall_time_ms, 4),
            "counters": dict(self.counters),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        """One human-readable line per pass."""
        counters = ", ".join(f"{k}={v:g}" for k, v in sorted(self.counters.items()))
        return (
            f"{self.name}: {self.wall_time_ms:.3f}ms"
            f" [{counters}]"
            f" cache {self.cache_hits}h/{self.cache_misses}m"
        )


@dataclass
class CompilationContext:
    """Everything the passes share while compiling one kernel.

    A pass reads and writes exactly these fields; nothing else flows
    between passes, which is what makes them independently testable.
    ``graph`` is *replaced* by the forward-propagation pass (it
    rebuilds the op list while sharing values), so later passes must
    re-read it from the context.
    """

    #: The kernel graph being compiled (rewired in place by passes).
    graph: Graph
    #: Target platform.
    spec: GpuSpec
    #: Engine mode: ``"linear"`` or ``"legacy"``.
    mode: str
    #: Warps per CTA — the anchor heuristics read this.
    num_warps: int
    #: The legacy layout system (capability checks in legacy mode).
    legacy: LegacyLayoutSystem = field(default_factory=LegacyLayoutSystem)
    #: The unified pricing authority (set by :meth:`create`).
    cost: Optional[OpCostModel] = None
    #: Anchor catalog, populated by the AnchorSelection pass.
    anchors: Optional[object] = None
    #: Priced instruction stream, populated by the lowering pass.
    trace: Optional[Trace] = None
    #: Lowered conversion plans, populated by the lowering pass.
    conversions: List[ConversionPlan] = field(default_factory=list)
    #: Total simulated cycles, populated by the cost-summary pass.
    cycles: Optional[float] = None
    #: One record per executed pass, in execution order.
    diagnostics: List[PassDiagnostics] = field(default_factory=list)

    def lowered_trace(self, who: str) -> Trace:
        """``trace``; raises :class:`ValueError` naming ``who`` when no
        pass set it."""
        if self.trace is None:
            raise ValueError(
                f"{who} requires a lowered trace; run LowerToPlans "
                "(or a pass that sets ctx.trace) first"
            )
        return self.trace

    @classmethod
    def create(
        cls,
        graph: Graph,
        spec: GpuSpec = RTX4090,
        mode: str = "linear",
        num_warps: int = 4,
    ) -> "CompilationContext":
        """A context wired with the mode's cost model."""
        cost = op_cost_model(spec, mode)
        check_num_warps(num_warps)
        return cls(
            graph=graph,
            spec=spec,
            mode=mode,
            num_warps=num_warps,
            cost=cost,
        )


class Pass:
    """One pipeline stage.

    Subclasses set ``name`` and implement :meth:`run`; the manager
    handles timing, diagnostics bookkeeping, and cache attribution.
    A pass that cannot proceed raises (legacy capability gaps raise
    :class:`~repro.core.errors.LegacyUnsupportedError`, which
    :func:`repro.engine.compile` turns into a failed
    :class:`CompiledKernel`).
    """

    name: str = "pass"

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PassManager:
    """Runs a pass sequence over a context, recording diagnostics."""

    def __init__(self, passes: Sequence[Pass]):
        self.passes: List[Pass] = list(passes)

    def run(self, ctx: CompilationContext) -> CompilationContext:
        """Execute every pass in order.

        Each pass gets a fresh diagnostics record appended to
        ``ctx.diagnostics`` *before* it runs, so a raising pass still
        leaves its timing behind (with a note recording the error).

        Cache attribution uses the *thread-local* counters of
        :func:`repro.cache.counters`, so per-pass ``cache_hits`` stay
        correct even while other threads (a
        :class:`repro.serve.CompileService` pool) drive the same
        caches concurrently.

        When :mod:`repro.obs` is recording, every pass additionally
        emits a ``pass:<name>`` span that adopts the pass's
        :class:`PassDiagnostics` — one measurement, two views —
        nested under whatever span the caller opened
        (``compile:kernel``, ``serve:request``).  The span turns the
        record into its attributes once, when they are read (at
        export); disabled, the span hook is a no-op and the record is
        never turned into a dict.
        """
        with _obs.span(
            "pipeline:run",
            mode=ctx.mode,
            platform=ctx.spec.name,
            num_warps=ctx.num_warps,
            passes=len(self.passes),
        ):
            for p in self.passes:
                diag = PassDiagnostics(name=p.name)
                ctx.diagnostics.append(diag)
                cache_before = _cache.counters()
                start = time.perf_counter()
                with _obs.span(f"pass:{p.name}", mode=ctx.mode) as sp:
                    try:
                        p.run(ctx, diag)
                    except Exception as exc:
                        diag.notes.append(
                            f"raised {type(exc).__name__}: {exc}"
                        )
                        raise
                    finally:
                        diag.wall_time_ms = (
                            time.perf_counter() - start
                        ) * 1e3
                        delta = _cache.counters_delta(cache_before)
                        diag.cache_hits = delta["hits"]
                        diag.cache_misses = delta["misses"]
                        sp.adopt(diag)
        return ctx

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"PassManager([{names}])"


def standard_passes(mode: str) -> List[Pass]:
    """The stock pass list — the *declarative* legacy/linear split.

    Both modes share the pipeline shape; they differ only in the
    policies handed to each pass (propagation policy, remat guard,
    cost policy — the latter already lives in the context's cost
    model).
    """
    from repro.engine.passes.anchor_selection import AnchorSelection
    from repro.engine.passes.cost_summary import CostSummary
    from repro.engine.passes.forward_propagation import (
        ForwardPropagation,
        LegacyPropagationPolicy,
        LinearPropagationPolicy,
    )
    from repro.engine.passes.lower import LowerToPlans
    from repro.engine.passes.remat import BackwardRematerialization

    legacy = policy_for_mode(mode).mode == "legacy"
    propagation = LegacyPropagationPolicy() if legacy else LinearPropagationPolicy()
    return [
        AnchorSelection(),
        ForwardPropagation(propagation),
        BackwardRematerialization(require_descriptor=legacy),
        LowerToPlans(),
        CostSummary(),
    ]


__all__ = [
    "CompilationContext",
    "Pass",
    "PassDiagnostics",
    "PassManager",
    "standard_passes",
]
