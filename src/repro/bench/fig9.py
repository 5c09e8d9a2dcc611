"""Figure 9 + Tables 2 & 6: the real-benchmark suite.

Compiles every kernel model on every platform it supports in both
engine modes and reports per-case simulated speedups (Figure 9), the
platform inventory (Table 2), and the linear-mode op mix per benchmark
(Table 6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.harness import Table, geomean
from repro.engine import compile as compile_graph
from repro.hardware.spec import PLATFORMS
from repro.kernels import KERNELS

#: The Table 6 kernel set: the benchmarks with nonzero op counts.
TABLE6_KERNELS = [
    "gemm", "bf16xint16_gemm", "int4_gemm", "template_attention",
    "fp8_gemm", "welford", "gather_gemv", "grouped_gemm", "rope",
    "embedding",
]


def run_table2() -> Table:
    """The Table 2 platform inventory."""
    table = Table(
        title="Table 2: hardware platforms evaluated",
        headers=["platform", "warp", "banks", "mma flavor",
                 "ldmatrix", "stmatrix", "memory"],
    )
    for name, spec in PLATFORMS.items():
        table.add_row(
            name, spec.warp_size,
            f"{spec.num_banks}x{spec.bank_bytes}B",
            spec.mma_flavor,
            "yes" if spec.has_ldmatrix else "no",
            "yes" if spec.has_stmatrix else "no",
            spec.memory_desc,
        )
    return table


def compile_case(
    model, case, platform: str, mode: str
) -> Optional[object]:
    """Compile one kernel case on one platform in one mode."""
    kb = model.build(**case.kwargs())
    return compile_graph(kb.graph, spec=PLATFORMS[platform], mode=mode)


def run_fig9(
    kernels: Optional[List[str]] = None,
    first_case_only: bool = False,
) -> Tuple[Table, Table, List[float]]:
    """Returns (figure 9 table, table 6 table, all case speedups).

    ``first_case_only`` restricts each kernel to its first input
    configuration — enough for the Table 6 op-count columns without
    paying for the full Figure 9 sweep.
    """
    fig = Table(
        title="Figure 9: real benchmark speedups (per case)",
        headers=["benchmark", "platform", "case", "legacy_cyc",
                 "linear_cyc", "speedup"],
    )
    tab6 = Table(
        title="Table 6: local memory / convert op distribution "
        "(linear mode, first case)",
        headers=["benchmark", "#load", "#store", "#convert"],
    )
    speedups: List[float] = []
    names = kernels if kernels is not None else sorted(KERNELS)
    for name in names:
        model = KERNELS[name]
        first_counts: Optional[Dict[str, int]] = None
        cases = model.cases[:1] if first_case_only else model.cases
        for case in cases:
            for platform in model.platforms:
                linear = compile_case(model, case, platform, "linear")
                legacy = compile_case(model, case, platform, "legacy")
                if not (linear.ok and legacy.ok):
                    fig.add_row(
                        name, platform, case.name, "FAIL", "FAIL", 0.0
                    )
                    continue
                ratio = legacy.cycles() / linear.cycles()
                speedups.append(ratio)
                fig.add_row(
                    name, platform, case.name,
                    round(legacy.cycles()), round(linear.cycles()),
                    ratio,
                )
                if first_counts is None:
                    counts = linear.op_counts()
                    first_counts = counts
        if first_counts and (
            first_counts["convert_layout"]
            or first_counts["local_load"]
            or first_counts["local_store"]
        ):
            tab6.add_row(
                name,
                first_counts["local_load"],
                first_counts["local_store"],
                first_counts["convert_layout"],
            )
    if speedups:
        fig.notes.append(
            f"{len(speedups)} cases; min {min(speedups):.2f}x, "
            f"geomean {geomean(speedups):.2f}x, "
            f"max {max(speedups):.2f}x "
            "(paper: 0.96x-1.40x, average 1.07x over 265 cases)"
        )
    return fig, tab6, speedups


def summarize_by_platform(fig: Table) -> Table:
    """Min/geomean/max per platform, the Figure 9 per-plot summary."""
    out = Table(
        title="Figure 9 summary per platform",
        headers=["platform", "cases", "min", "geomean", "max"],
    )
    by_platform: Dict[str, List[float]] = {}
    for row in fig.rows:
        _, platform, _, _, _, speedup = row
        if speedup:
            by_platform.setdefault(platform, []).append(speedup)
    for platform, values in sorted(by_platform.items()):
        out.add_row(
            platform, len(values), min(values), geomean(values),
            max(values),
        )
    return out
