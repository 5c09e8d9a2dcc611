"""Serving benchmark: batch-compile throughput vs. worker count.

Drives :class:`repro.serve.CompileService` over the cold Figure 9
kernel suite (every kernel's first case on every platform it
supports) and reports:

* **Throughput scaling** — requests/second at 1, 2, 4 thread
  workers, each run cold (:func:`repro.cache.clear` first).  Workers
  share the process-wide caches and serialize on the GIL for this
  pure-Python compiler, so cold throughput tracks serial; the
  recorded entry carries ``cpu_count`` alongside.
* **Duplicate-traffic dedup** — the same suite requested ``dup``
  times over: single-flight plus the result cache serve the
  duplicates without recompiling, which is the serving win that does
  not depend on core count.
* **Golden equivalence** — every record of
  ``benchmarks/golden/pipeline_equivalence.json`` recompiled through
  the service and compared field-for-field (cycles, op counts)
  against the serial golden, proving the concurrent front-end is
  bit-identical to :func:`repro.engine.compile`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from repro import cache as _cache
from repro.bench.harness import Table
from repro.kernels import KERNELS
from repro.serve import CompileRequest, CompileService

__all__ = [
    "run_dedup",
    "run_equivalence",
    "run_throughput",
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


def _run_batch(
    requests: Sequence[CompileRequest], workers: int
) -> float:
    """Wall seconds of one cold batch compile."""
    _cache.clear()
    start = time.perf_counter()
    with CompileService(workers=workers, name="bench-thread") as service:
        service.compile_batch(requests)
    return time.perf_counter() - start


def run_throughput(
    worker_counts: Sequence[int] = (1, 2, 4),
    requests: Optional[Sequence[CompileRequest]] = None,
) -> Table:
    """Cold-suite throughput per worker count."""
    if requests is None:
        requests = suite_requests()
    table = Table(
        title="Batch-compile throughput vs workers (cold fig9 suite)",
        headers=[
            "workers", "requests", "wall_s", "req_per_s", "speedup_vs_1",
        ],
    )
    base_rps: Optional[float] = None
    for workers in worker_counts:
        wall = _run_batch(requests, workers)
        rps = len(requests) / wall
        base_rps = base_rps or rps
        table.add_row(
            workers, len(requests), round(wall, 3), round(rps, 2),
            round(rps / base_rps, 3),
        )
    table.notes.append(
        f"cpu_count={os.cpu_count()}; thread workers share one GIL"
    )
    return table


def run_dedup(
    dup: int = 4,
    workers: int = 4,
    requests: Optional[Sequence[CompileRequest]] = None,
) -> Dict[str, object]:
    """Duplicate-traffic demo: the suite requested ``dup`` times.

    Serving-traffic shape: many users ask for the same kernels.  The
    service compiles each unique key once; single-flight and the
    result cache absorb the rest.
    """
    if requests is None:
        requests = suite_requests()
    traffic = [r for _ in range(dup) for r in requests]
    _cache.clear()
    start = time.perf_counter()
    with CompileService(workers=workers, name="bench-dedup") as service:
        service.compile_batch(traffic)
        report = service.report()
    wall = time.perf_counter() - start
    return {
        "dup_factor": dup,
        "workers": workers,
        "requests": len(traffic),
        "unique_keys": len({r.canonical_key() for r in traffic}),
        "compiles": report.compiles,
        "dedup_shared": report.dedup_shared,
        "result_cache_hits": report.result_cache_hits,
        "wall_s": round(wall, 3),
        "req_per_s": round(len(traffic) / wall, 2),
        "duplicate_work_eliminated": round(
            1.0 - report.compiles / len(traffic), 4
        ),
    }


def run_equivalence(
    golden_path: str, workers: int = 8
) -> Dict[str, object]:
    """Service output vs the serial pipeline-equivalence golden.

    Every golden record is recompiled through a cold service; cycles
    and op counts must match the serially produced golden
    field-for-field.
    """
    with open(golden_path) as fh:
        golden = json.load(fh)["records"]
    requests = [
        CompileRequest(
            kernel=rec["kernel"],
            case=rec["case"],
            platform=rec["platform"],
            mode=rec["mode"],
        )
        for rec in golden
    ]
    _cache.clear()
    with CompileService(workers=workers, name="bench-equiv") as service:
        results = service.compile_batch(requests)
    mismatches: List[str] = []
    for rec, compiled in zip(golden, results):
        label = (
            f"{rec['kernel']}/{rec['case']}@{rec['platform']}"
            f"/{rec['mode']}"
        )
        if compiled.ok != rec["ok"]:
            mismatches.append(f"{label}: ok {compiled.ok} != {rec['ok']}")
            continue
        if not rec["ok"]:
            continue
        if round(compiled.cycles()) != rec["cycles"]:
            mismatches.append(
                f"{label}: cycles {round(compiled.cycles())} "
                f"!= {rec['cycles']}"
            )
        if compiled.op_counts() != rec["op_counts"]:
            mismatches.append(
                f"{label}: op_counts {compiled.op_counts()} "
                f"!= {rec['op_counts']}"
            )
    return {
        "records": len(golden),
        "mismatches": len(mismatches),
        "first_mismatches": mismatches[:10],
        "bit_identical": not mismatches,
    }
