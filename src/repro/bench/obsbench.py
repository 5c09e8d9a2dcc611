"""Observability benchmark + suite capture (records BENCH_obs.json).

Three jobs, shared by ``benchmarks/bench_obs.py`` and the
``python -m repro.obs capture`` CLI:

* :func:`capture_suite` — compile a whole suite (Table 6 kernels by
  default) through :class:`repro.serve.CompileService` with
  observability recording, execute a sample of the lowered
  conversions on the simulated machine so simulator spans/metrics
  appear, and return the :class:`~repro.obs.core.Recorder` ready for
  export.  This is what CI exports and schema-checks.
* :func:`run_overhead` — enabled-vs-disabled compile wall time on the
  same suite (cold and warm cache), plus the spans captured and the
  size of their Chrome trace.  The <3% gate of
  ``bench_obs.py --check`` reads this.
* :func:`run_noop_latency` — nanoseconds per *disabled* span/metric
  hook, the "unmeasurable when off" line.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import cache as _cache
from repro import obs
from repro.bench.fig9 import TABLE6_KERNELS
from repro.gpusim import Machine, distributed_data
from repro.hardware.spec import PLATFORMS
from repro.kernels import KERNELS
from repro.serve import CompileRequest, CompileService

__all__ = [
    "capture_suite",
    "run_noop_latency",
    "run_overhead",
    "suite",
    "suite_requests",
]


def suite_requests(
    modes: Sequence[str] = ("linear",),
    first_case_only: bool = True,
    kernels: Optional[Sequence[str]] = None,
) -> List[CompileRequest]:
    """The Figure 9 suite as service requests."""
    requests: List[CompileRequest] = []
    for name in kernels if kernels is not None else sorted(KERNELS):
        model = KERNELS[name]
        cases = model.cases[:1] if first_case_only else model.cases
        for case in cases:
            for platform in model.platforms:
                for mode in modes:
                    requests.append(
                        CompileRequest(
                            kernel=name,
                            case=case.name,
                            platform=platform,
                            mode=mode,
                        )
                    )
    return requests


def suite(name: str = "table6") -> List[CompileRequest]:
    """A named request suite: ``table6`` (default), ``fig9`` or ``fig9-all``.

    ``fig9`` is each Figure 9 kernel's first case in linear mode;
    ``fig9-all`` is every case in both linear and legacy mode (458
    compiles), long enough for a cold sweep to time reliably.
    """
    if name == "table6":
        return suite_requests(kernels=TABLE6_KERNELS)
    if name == "fig9":
        return suite_requests()
    if name == "fig9-all":
        return suite_requests(
            modes=("linear", "legacy"), first_case_only=False
        )
    raise ValueError(
        f"unknown suite {name!r} (expected table6, fig9 or fig9-all)"
    )


def _simulate_conversions(
    pairs: Sequence[Tuple[CompileRequest, object]], limit: int
) -> int:
    """Run up to ``limit`` lowered conversions on the machine.

    Compilation alone never *executes* plans; driving a sample
    through :class:`~repro.gpusim.machine.Machine` puts simulator
    spans (``sim:run_program``) and metrics (``sim.cycles``,
    ``sim.bank_conflicts``) into the capture.
    """
    ran = 0
    machines: Dict[str, Machine] = {}
    for request, compiled in pairs:
        if ran >= limit:
            break
        if compiled is None or not getattr(compiled, "ok", False):
            continue
        machine = machines.get(request.platform)
        if machine is None:
            machine = machines[request.platform] = Machine(
                spec=PLATFORMS[request.platform],
                num_warps=request.num_warps,
            )
        for plan in compiled.conversions:
            if ran >= limit:
                break
            registers = distributed_data(
                plan.src, request.num_warps, machine.spec.warp_size
            )
            machine.run_conversion(plan, registers)
            ran += 1
    return ran


def capture_suite(
    suite_name: str = "table6",
    dup: int = 2,
    simulate: int = 12,
    max_spans: int = 500_000,
) -> Tuple[obs.Recorder, Dict[str, object]]:
    """One observed suite run; returns ``(recorder, info)``.

    The suite is submitted ``dup`` times so the capture also shows
    the dedup machinery working (requests sharing a pending flight,
    result-cache hits on done ones), and the caches are cleared
    first so both misses and hits appear.
    """
    requests = suite(suite_name)
    _cache.clear()
    with obs.capture(max_spans=max_spans) as recorder:
        start = time.perf_counter()
        with CompileService(name=f"obs-{suite_name}") as service:
            results = service.compile_batch(requests * max(1, dup))
            report = service.report()
        simulated = _simulate_conversions(
            list(zip(requests, results[: len(requests)])), simulate
        )
        wall_s = time.perf_counter() - start
        _cache.publish_obs_gauges()
    info = {
        "suite": suite_name,
        "requests": len(requests) * max(1, dup),
        "unique_requests": len(requests),
        "compiles": report.compiles,
        "failures": report.failures,
        "simulated_conversions": simulated,
        "spans": len(recorder),
        "dropped_spans": recorder.dropped_spans,
        "wall_s": round(wall_s, 3),
        "service": report.describe(),
    }
    return recorder, info


# ----------------------------------------------------------------------
# Overhead measurement
# ----------------------------------------------------------------------
def _compile_serially(requests: Sequence[CompileRequest]) -> None:
    for request in requests:
        request.build_and_compile()


def _cold_compile_s(request: CompileRequest) -> float:
    """Seconds of one compile from cleared caches."""
    _cache.clear()
    start = time.perf_counter()
    request.build_and_compile()
    return time.perf_counter() - start


def _cold_pass(
    requests: Sequence[CompileRequest], repeats: int
) -> Tuple[float, float]:
    """(disabled, enabled) cold seconds of ``requests``.

    Every request compiles ``repeats`` times each way from cleared
    caches, with and without a recorder installed, in alternating
    order, and each side keeps its best time per request.  The two
    sides of a request run milliseconds apart, so a drift in machine
    speed reaches both alike, and the best-of keeps a burst of noise
    out of either; whole-suite sweeps, one per side, left a noisy
    host's drift in the ratio.
    """
    off = on = 0.0
    for i, request in enumerate(requests):
        offs: List[float] = []
        ons: List[float] = []
        for j in range(repeats):
            order = (False, True) if (i + j) % 2 == 0 else (True, False)
            for enabled in order:
                if enabled:
                    with obs.capture():
                        ons.append(_cold_compile_s(request))
                else:
                    offs.append(_cold_compile_s(request))
        off += min(offs)
        on += min(ons)
    return off, on


def _warm_sweeps(
    requests: Sequence[CompileRequest], repeats: int
) -> float:
    """Median seconds of ``repeats`` serial sweeps over warm caches."""
    warms = []
    for _ in range(repeats):
        start = time.perf_counter()
        _compile_serially(requests)
        warms.append(time.perf_counter() - start)
    return statistics.median(warms)


def run_overhead(
    suite_name: str = "table6",
    kernels: Optional[Sequence[str]] = None,
    warm_repeats: int = 5,
    cold_repeats: int = 2,
) -> Dict[str, object]:
    """Enabled-vs-disabled compile time, spans captured, trace size.

    Serial compiles (no worker pool) so the measurement is pure
    compiler + instrumentation, not thread scheduling.  Cold numbers
    are dominated by real F2 planning — that is the production-shaped
    figure the <3% gate applies to; warm numbers (cache-hit compiles,
    microseconds each) are reported for honesty but not gated, since
    a handful of span records is a visible fraction of almost zero.

    The cold times come from :func:`_cold_pass` with
    ``cold_repeats`` compiles per request and side.  The reported
    capture holds one cold suite sweep and the enabled warm sweeps.
    """
    requests = (
        suite(suite_name)
        if kernels is None
        else suite_requests(kernels=kernels)
    )
    assert not obs.is_enabled(), "run_overhead must start disabled"
    cold_repeats = max(1, cold_repeats)
    cold_off, cold_on = _cold_pass(requests, cold_repeats)
    _cache.clear()
    _compile_serially(requests)
    warm_off = _warm_sweeps(requests, warm_repeats)
    with obs.capture() as recorder:
        _cache.clear()
        _compile_serially(requests)
        warm_on = _warm_sweeps(requests, warm_repeats)
        _cache.publish_obs_gauges()
    chrome = obs.chrome_trace(recorder, suite=suite_name)
    # The bytes :func:`repro.obs.write_chrome_trace` would write.
    export_bytes = len(json.dumps(chrome, indent=1).encode()) + 1
    return {
        "suite": suite_name,
        "requests": len(requests),
        "cold_repeats": cold_repeats,
        "warm_repeats": warm_repeats,
        "cold_disabled_s": round(cold_off, 4),
        "cold_enabled_s": round(cold_on, 4),
        "cold_overhead": round(cold_on / cold_off - 1, 4),
        "warm_disabled_s": round(warm_off, 4),
        "warm_enabled_s": round(warm_on, 4),
        "warm_overhead": round(warm_on / warm_off - 1, 4),
        "spans_captured": len(recorder),
        "chrome_trace_events": len(chrome["traceEvents"]),
        "export_bytes": export_bytes,
    }


def run_noop_latency(iterations: int = 200_000) -> Dict[str, object]:
    """Nanoseconds per disabled span + metric hook pair."""
    assert not obs.is_enabled(), "noop latency must run disabled"
    # Warm the attribute lookups before timing.
    for _ in range(1000):
        with obs.span("bench:noop"):
            obs.count("bench.noop")
    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("bench:noop"):
            obs.count("bench.noop")
    elapsed = time.perf_counter() - start
    return {
        "iterations": iterations,
        "ns_per_hook_pair": round(elapsed / iterations * 1e9, 1),
    }
