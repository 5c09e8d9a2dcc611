"""Compile-service throughput benchmark (records BENCH_serve.json).

Measures batch-compile throughput of :class:`repro.serve.CompileService`
against worker count on the cold Figure 9 suite, the dedup win on
duplicated traffic, and bit-identity of service output against the
``pipeline_equivalence.json`` golden.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py [--json] [--check]

``--check`` exits non-zero when the equivalence golden mismatches or
when dedup fails to eliminate duplicate work.  Throughput scaling is
recorded but not gated: thread workers share one GIL.
"""

import json
import os
import sys
from pathlib import Path

from conftest import append_record, run_once, utc_timestamp
from repro.bench.servebench import (
    run_dedup,
    run_equivalence,
    run_throughput,
    suite_requests,
)

HERE = Path(__file__).resolve().parent
BENCH_FILE = HERE.parent / "BENCH_serve.json"
GOLDEN = HERE / "golden" / "pipeline_equivalence.json"


def test_serve_equivalence_and_dedup(benchmark):
    """The service is bit-identical to serial and dedups duplicates."""
    equiv = run_once(benchmark, run_equivalence, golden_path=str(GOLDEN))
    assert equiv["bit_identical"], equiv["first_mismatches"]
    dedup = run_dedup(dup=3, workers=4, requests=suite_requests()[:12])
    assert dedup["compiles"] == dedup["unique_keys"]
    assert dedup["duplicate_work_eliminated"] > 0.6


def record(table, dedup, equiv) -> dict:
    """The BENCH_serve.json entry for one run."""
    return {
        "bench": "serve",
        "timestamp": utc_timestamp(),
        "cpu_count": os.cpu_count(),
        "suite_requests": len(suite_requests()),
        "speedup_thread": table.column("speedup_vs_1")[-1],
        "dedup": dedup,
        "equivalence": {
            k: v for k, v in equiv.items() if k != "first_mismatches"
        },
        "table": table.to_dict(),
    }


def check(entry: dict) -> int:
    """Acceptance gates; returns a process exit code."""
    failures = []
    if not entry["equivalence"]["bit_identical"]:
        failures.append(
            f"{entry['equivalence']['mismatches']} golden mismatches"
        )
    if entry["dedup"]["duplicate_work_eliminated"] < 0.5:
        failures.append("single-flight/result cache failed to dedup")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    table = run_throughput()
    dedup = run_dedup()
    equiv = run_equivalence(str(GOLDEN))
    entry = record(table, dedup, equiv)
    if "--json" in sys.argv:
        print(json.dumps(entry, indent=2))
    else:
        print(table.format())
        print(f"dedup: {json.dumps(dedup)}")
        print(f"equivalence: {json.dumps({k: v for k, v in equiv.items() if k != 'first_mismatches'})}")
    if "--no-record" not in sys.argv:
        append_record(BENCH_FILE, entry)
        print(f"appended thread {entry['speedup_thread']}x to {BENCH_FILE}")
    if "--check" in sys.argv:
        sys.exit(check(entry))
