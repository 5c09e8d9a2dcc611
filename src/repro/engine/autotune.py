"""Layout autotuning — the paper's future-work direction (Section 8).

"In the future, we plan to integrate linear layouts with hardware
measurements to develop a holistic performance model for autotuning
kernel performance."  With the simulator standing in for hardware
measurements, this module closes that loop: it sweeps the
configuration space the layout engine exposes (warp count, anchor
layout choices) and picks the configuration with the lowest simulated
cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.builder import KernelBuilder
from repro.engine.engine import CompiledKernel, LayoutEngine
from repro.hardware.spec import GpuSpec, RTX4090


@dataclass(frozen=True)
class TuningConfig:
    """One point of the autotuning space."""

    num_warps: int
    mode: str = "linear"

    def __str__(self) -> str:
        return f"num_warps={self.num_warps}, mode={self.mode}"


@dataclass
class TuningResult:
    """Outcome of a sweep: every evaluated point plus the winner."""

    best: TuningConfig
    best_cycles: float
    trials: List[Tuple[TuningConfig, Optional[float]]] = field(
        default_factory=list
    )

    def speedup_over_worst(self) -> float:
        """How much the tuned configuration beats the worst valid one."""
        valid = [c for _, c in self.trials if c is not None]
        return max(valid) / self.best_cycles if valid else 1.0


#: Architectural register-file limit per thread (PTX's 255-register
#: ceiling, rounded to a power of two of 32-bit registers).
MAX_REGISTERS_PER_THREAD = 256


def resource_violation(
    compiled: CompiledKernel, spec: GpuSpec
) -> Optional[str]:
    """Reject configurations that no real launch could sustain.

    Checks the two limits layout choices actually hit: per-thread
    register pressure (sum over live values is approximated by the
    largest layout) and the shared-memory footprint of the staged
    conversions.
    """
    worst_regs = 0
    for op in compiled.graph.ops:
        value = op.output
        if value is None or value.layout is None:
            continue
        regs32 = (
            value.layout.in_dim_size("register")
            * max(1, value.dtype.bits // 32)
        )
        worst_regs = max(worst_regs, regs32)
    if worst_regs > MAX_REGISTERS_PER_THREAD:
        return (
            f"register pressure: {worst_regs} > "
            f"{MAX_REGISTERS_PER_THREAD} per thread"
        )
    smem = max(
        (plan.shared_bytes for plan in compiled.conversions),
        default=0,
    )
    if smem > spec.shared_mem_bytes:
        return (
            f"shared memory: {smem} > {spec.shared_mem_bytes} bytes"
        )
    return None


def autotune(
    build: Callable[..., KernelBuilder],
    build_kwargs: Optional[Dict] = None,
    spec: GpuSpec = RTX4090,
    warp_candidates: Sequence[int] = (1, 2, 4, 8),
    mode: str = "linear",
) -> TuningResult:
    """Sweep configurations, compiling fresh each time, and keep the
    configuration with the lowest simulated cycle count.

    ``build`` is a kernel-builder function (e.g. one of
    :mod:`repro.kernels.models`); failures (e.g. legacy gaps) are
    recorded as ``None`` and skipped.
    """
    build_kwargs = build_kwargs or {}
    trials: List[Tuple[TuningConfig, Optional[float]]] = []
    best: Optional[TuningConfig] = None
    best_cycles = float("inf")
    for num_warps in warp_candidates:
        config = TuningConfig(num_warps=num_warps, mode=mode)
        try:
            kb = build(**build_kwargs)
            compiled = LayoutEngine(
                spec, mode, num_warps=num_warps
            ).compile(kb.graph)
        except Exception:
            trials.append((config, None))
            continue
        if not compiled.ok:
            trials.append((config, None))
            continue
        if resource_violation(compiled, spec) is not None:
            trials.append((config, None))
            continue
        # The compiled trace was priced by the lowering pass, so the
        # tuner ranks configurations under the compiler's own model.
        cycles = compiled.cycles()
        trials.append((config, cycles))
        if cycles < best_cycles:
            best, best_cycles = config, cycles
    if best is None:
        raise RuntimeError("no configuration compiled successfully")
    return TuningResult(best=best, best_cycles=best_cycles,
                        trials=trials)
