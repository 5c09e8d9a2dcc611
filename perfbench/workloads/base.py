"""What every workload shares: the pass record and the fig9 compile loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import cache
from repro.obs import span

from perfbench.suite import (
    Case,
    check_compiled,
    fig9_suite,
    load_golden,
    speedup_geomean,
)
from perfbench.telemetry import cache_delta, cache_snapshot


@dataclass
class PassResult:
    """One pass over a workload's inputs.

    Times are scaled to the reference speed (:mod:`perfbench.clock`)
    except ``raw_wall_s``.
    """

    #: Time spent in the pass's operations.
    wall_s: float
    raw_wall_s: float
    #: Per-operation latency (a compile, a request, a simulation).
    latencies_ms: List[float]
    failures: List[str]
    #: Counts that must repeat exactly from pass to pass and run to run.
    counts: Dict[str, float]
    #: (hits, misses) per named cache during the pass.
    cache: Dict[str, Tuple[int, int]]
    #: Anything else the workload's per-layer metrics read.
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def timed_ops(clock, items, op):
    """Run ``op(item)`` for each item with calibration in between.

    Returns ``(scaled latencies in ms, raw seconds in total)``.
    """
    intervals = []
    for item in items:
        clock.calibrate()
        start = time.perf_counter()
        op(item)
        intervals.append((start, time.perf_counter()))
    clock.calibrate()
    latencies = [clock.scaled(a, b) * 1e3 for a, b in intervals]
    return latencies, sum(b - a for a, b in intervals)


def compile_cases(cases: List[Case], golden: dict, clock):
    """Compile ``cases`` in order from empty caches, checking each.

    Returns ``(results, latencies_ms, failures, cache_delta, raw_s)``;
    a compile's latency covers building its graph and compiling it.
    """
    cache.clear()
    before = cache_snapshot()
    results: List[Tuple[Case, object]] = []
    failures: List[str] = []

    def compile_one(case: Case) -> None:
        try:
            with span("kernels:build"):
                graph = case.build_graph()
            compiled = case.compile(graph)
        except Exception as exc:  # a raising compile is a failed output
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            return
        problem = check_compiled(case, compiled, golden)
        if problem is not None:
            failures.append(f"{case}: {problem}")
        results.append((case, compiled))

    latencies, raw = timed_ops(clock, cases, compile_one)
    return results, latencies, failures, cache_delta(before), raw


def warm_up(clock):
    """Set-up that compiles the whole suite once, in registry order.

    Returns ``(suite, golden, results, geomean, scaled seconds,
    compiles, failures)``.
    """
    start = time.perf_counter()
    suite, golden = fig9_suite(), load_golden()
    read = (start, time.perf_counter())
    results, latencies, failures, _, _ = compile_cases(suite, golden, clock)
    seconds = clock.scaled(*read) + sum(latencies) / 1e3
    geomean = speedup_geomean(dict(results))
    return suite, golden, results, geomean, seconds, len(latencies), failures
