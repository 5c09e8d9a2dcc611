"""Simulator throughput: vectorized vs scalar program interpreter.

Run as a script to print the table and append an aggregate record to
``BENCH_sim.json`` at the repo root (pass ``--json`` to print the
record instead of the table; ``--no-record`` skips the append).
"""

import json
import sys
from pathlib import Path

from conftest import append_record, run_once, utc_timestamp
from repro.bench.simthroughput import aggregate_speedup, run_sim_throughput

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_sim.json"


def test_vectorized_speedup(benchmark):
    table = run_once(benchmark, run_sim_throughput)
    print()
    print(table.format())
    # The refactor's bar: the default (vectorized) interpreter at
    # least 3x the scalar oracle's throughput on the fig7 suite.
    assert aggregate_speedup(table) >= 3.0
    assert all(s > 1.0 for s in table.column("speedup"))


def record(table) -> dict:
    """The BENCH_sim.json entry for one run."""
    iters = 3
    runs = iters * len(table.rows)
    scalar_s = sum(table.column("scalar_ms")) * iters / 1e3
    vector_s = sum(table.column("vector_ms")) * iters / 1e3
    return {
        "bench": "sim_throughput",
        "timestamp": utc_timestamp(),
        "cases": len(table.rows),
        "scalar_plans_per_s": round(runs / scalar_s, 2),
        "vector_plans_per_s": round(runs / vector_s, 2),
        "speedup": round(aggregate_speedup(table), 2),
        "table": table.to_dict(),
    }


if __name__ == "__main__":
    result = run_sim_throughput()
    entry = record(result)
    if "--json" in sys.argv:
        print(json.dumps(entry, indent=2))
    else:
        print(result.format())
    if "--no-record" not in sys.argv:
        append_record(BENCH_FILE, entry)
        print(f"appended speedup {entry['speedup']}x to {BENCH_FILE}")
    if entry["speedup"] < 3.0:
        sys.exit("FAIL: vectorized interpreter below 3x scalar throughput")
