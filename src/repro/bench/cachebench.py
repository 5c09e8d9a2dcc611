"""Cold vs. warm compilation: the layout/plan cache microbenchmark.

A serving deployment compiles the same small set of kernel graphs over
and over; :mod:`repro.cache` interns layouts and memoizes conversion
planning so only the first compilation pays for F2 Gaussian
elimination and plan lowering.  This benchmark measures exactly that:
``compile()`` of a freshly rebuilt graph with cold caches, then warm
repeats, then the same workload with caching disabled — asserting
along the way that all three produce identical cycle counts.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from repro import cache
from repro.bench.harness import Table
from repro.engine import CompiledKernel, compile as compile_graph
from repro.hardware.spec import GpuSpec, RTX4090
from repro.kernels.models import (
    build_flex_attention,
    build_gemm,
    build_layer_norm,
    build_softmax,
)

#: The compiled workloads: name -> a builder returning a fresh graph.
WORKLOADS: Tuple[Tuple[str, Callable], ...] = (
    ("gemm_64", lambda: build_gemm(m=64, n=64, k=64, k_iters=4)),
    ("gemm_128", lambda: build_gemm(m=128, n=128, k=64, k_iters=8)),
    ("flex_attention", lambda: build_flex_attention()),
    ("softmax", lambda: build_softmax()),
    ("layer_norm", lambda: build_layer_norm()),
)


def _time_compile(
    build: Callable, spec: GpuSpec, mode: str
) -> Tuple[float, CompiledKernel]:
    """Seconds to compile a freshly built graph (the compile owns it)."""
    start = time.perf_counter()
    kernel = compile_graph(build().graph, spec=spec, mode=mode)
    return time.perf_counter() - start, kernel


def run_cache_bench(
    spec: GpuSpec = RTX4090,
    mode: str = "linear",
    warm_iters: int = 5,
) -> Table:
    """Cold/warm/disabled compile times per workload.

    ``cold_ms`` is the first compile after ``repro.cache.clear()``,
    ``warm_ms`` the best of ``warm_iters`` recompiles of the same
    (rebuilt) graph, ``nocache_ms`` a compile inside
    ``repro.cache.disabled()``.  The ``speedup`` column is
    cold / warm; correctness (identical cycles in all three runs) is
    asserted, not just reported.
    """
    table = Table(
        title=f"Cache benchmark: cold vs warm compile ({spec.name}, "
        f"{mode} mode)",
        headers=[
            "kernel",
            "cold_ms",
            "warm_ms",
            "nocache_ms",
            "speedup",
            "cycles",
        ],
    )
    speedups: List[float] = []
    for name, build in WORKLOADS:
        cache.clear()
        cold_s, cold_kernel = _time_compile(build, spec, mode)
        warm_s = float("inf")
        warm_kernel = cold_kernel
        for _ in range(warm_iters):
            elapsed, warm_kernel = _time_compile(build, spec, mode)
            warm_s = min(warm_s, elapsed)
        with cache.disabled():
            nocache_s, nocache_kernel = _time_compile(build, spec, mode)
        if warm_kernel.cycles() != cold_kernel.cycles():
            raise AssertionError(
                f"{name}: warm compile changed cycles "
                f"({warm_kernel.cycles()} != {cold_kernel.cycles()})"
            )
        if nocache_kernel.cycles() != cold_kernel.cycles():
            raise AssertionError(
                f"{name}: cache-disabled compile changed cycles "
                f"({nocache_kernel.cycles()} != {cold_kernel.cycles()})"
            )
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        speedups.append(speedup)
        table.add_row(
            name,
            cold_s * 1e3,
            warm_s * 1e3,
            nocache_s * 1e3,
            speedup,
            cold_kernel.cycles(),
        )
    stats = cache.stats()
    table.notes.append(
        "warm = best of {} recompiles of the same rebuilt graph; "
        "cycles identical across cold/warm/disabled runs".format(
            warm_iters
        )
    )
    table.notes.append(
        "cache stats: "
        + ", ".join(
            f"{name}: {s.hits}h/{s.misses}m"
            for name, s in sorted(stats.items())
        )
    )
    return table
