"""The fig9 suite and the output checks every workload shares.

The suite is every ``(kernel, case, platform, mode)`` of the kernel
registry: 229 cases on their platforms, in both engine modes, 458
compiles.  A compile *fails* when it raises, when a linear compile is
not ``ok`` (legacy may only refuse a kernel with
``LegacyUnsupportedError``, which the engine turns into a not-``ok``
result; anything else raises), or when it disagrees with its record in
``benchmarks/golden/pipeline_equivalence.json`` in cycles or op counts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine import compile as compile_graph
from repro.engine.ir import OpKind
from repro.hardware.spec import PLATFORMS
from repro.kernels import KERNELS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(
    ROOT, "benchmarks", "golden", "pipeline_equivalence.json"
)
MODES = ("linear", "legacy")


@dataclass(frozen=True)
class Case:
    """One fig9 compile: a kernel case on a platform in one mode."""

    kernel: str
    case: str
    platform: str
    mode: str

    @property
    def spec(self):
        return PLATFORMS[self.platform]

    def build_graph(self):
        """A fresh kernel graph (the engine rewires what it compiles)."""
        model = KERNELS[self.kernel]
        for case in model.cases:
            if case.name == self.case:
                return model.build(**case.kwargs()).graph
        raise KeyError(f"{self.kernel} has no case {self.case!r}")

    def compile(self, graph):
        return compile_graph(graph, spec=self.spec, mode=self.mode)


def fig9_suite() -> List[Case]:
    """Every fig9 compile, in registry order."""
    return [
        Case(name, case.name, platform, mode)
        for name in sorted(KERNELS)
        for case in KERNELS[name].cases
        for platform in KERNELS[name].platforms
        for mode in MODES
    ]


def load_golden() -> Dict[Tuple[str, str, str, str], dict]:
    """The pipeline-equivalence records, keyed like :class:`Case`."""
    with open(GOLDEN_PATH) as fh:
        records = json.load(fh)["records"]
    return {
        (r["kernel"], r["case"], r["platform"], r["mode"]): r
        for r in records
    }


def check_compiled(case: Case, compiled, golden: dict) -> Optional[str]:
    """Why ``compiled`` is a failed output of ``case``; None if it is not."""
    if case.mode == "linear" and not compiled.ok:
        return f"linear compile failed: {compiled.error}"
    rec = golden.get((case.kernel, case.case, case.platform, case.mode))
    if rec is None:
        return None
    if compiled.ok != rec["ok"]:
        return f"ok={compiled.ok}, golden ok={rec['ok']}"
    if compiled.ok and compiled.cycles() != rec["cycles"]:
        return f"cycles {compiled.cycles()} != golden {rec['cycles']}"
    if compiled.ok and compiled.op_counts() != rec["op_counts"]:
        return f"op counts {compiled.op_counts()} != golden"
    return None


def speedup_geomean(results: Dict[Case, object]) -> float:
    """Geomean of legacy/linear simulated cycles over cases with both ok."""
    logs = []
    for case, linear in results.items():
        if case.mode != "linear":
            continue
        legacy = results.get(
            Case(case.kernel, case.case, case.platform, "legacy")
        )
        if legacy is not None and linear.ok and legacy.ok:
            logs.append(math.log(legacy.cycles() / linear.cycles()))
    return math.exp(math.fsum(logs) / len(logs)) if logs else float("nan")


def model_counts(results: Iterable[Tuple[Case, object]]) -> Dict[str, float]:
    """Deterministic facts about a set of compiled kernels.

    Conversion plans are counted once per distinct plan object (the
    engine caches them, so equal conversions share one plan).
    """
    counts = {
        "engine.conversions_inserted": 0,
        "engine.conversions_eliminated": 0,
        "program.instructions": 0,
        "codegen.plans_shared": 0,
        "codegen.plans_shuffle": 0,
        "codegen.plans_register": 0,
        "codegen.plans_noop": 0,
    }
    cycles = {mode: [] for mode in MODES}
    seen = set()
    for case, compiled in results:
        for diag in compiled.diagnostics:
            for name in ("conversions_inserted", "conversions_eliminated"):
                counts[f"engine.{name}"] += diag.counters.get(name, 0)
        if not compiled.ok:
            continue
        cycles[case.mode].append(compiled.cycles())
        for plan, program in zip(compiled.conversions, compiled.programs):
            if id(plan) in seen:
                continue
            seen.add(id(plan))
            counts[f"codegen.plans_{plan.kind}"] += 1
            counts["program.instructions"] += len(program.instrs)
    counts["gpusim.cycles_linear"] = math.fsum(cycles["linear"])
    counts["gpusim.cycles_legacy"] = math.fsum(cycles["legacy"])
    return counts


def conversions(results: Iterable[Tuple[Case, object]]):
    """Distinct ``(spec, mode, src, dst, dtype)`` conversions compiled."""
    out = {}
    for case, compiled in results:
        for op in compiled.graph.ops:
            if op.kind != OpKind.CONVERT_LAYOUT:
                continue
            src, dst = op.inputs[0], op.output
            if src.layout is None or dst.layout is None:
                continue
            key = (
                case.platform, case.mode, src.layout.canonical_key(),
                dst.layout.canonical_key(), src.dtype.bits,
            )
            out.setdefault(
                key, (case.spec, case.mode, src.layout, dst.layout, src.dtype)
            )
    return list(out.values())
