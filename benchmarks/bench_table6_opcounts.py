"""Table 6: local memory and convert_layout op distribution.

Also the pipeline-equivalence smoke check: ``--check`` diffs the
op counts against the checked-in golden file
(``benchmarks/golden/table6_opcounts.json``, generated from the
pre-refactor engine), so CI catches any pipeline change that shifts
a single op count.  Regenerate with ``--update`` after an
*intentional* change.
"""

import json
import os
import sys

from conftest import run_once
from repro.bench.fig9 import TABLE6_KERNELS, run_fig9

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "golden",
    "table6_opcounts.json",
)


def run_table6():
    _, tab6, _ = run_fig9(kernels=TABLE6_KERNELS, first_case_only=True)
    return tab6


def table_to_opcounts(table):
    """{kernel: {local_load, local_store, convert_layout}} from the
    Table 6 rows."""
    return {
        row[0]: {
            "local_load": row[1],
            "local_store": row[2],
            "convert_layout": row[3],
        }
        for row in table.rows
    }


def check_against_golden(counts, golden):
    """Human-readable diffs between measured and golden op counts."""
    diffs = []
    for kernel in sorted(set(golden) | set(counts)):
        if kernel not in counts:
            diffs.append(f"{kernel}: missing (golden has {golden[kernel]})")
        elif kernel not in golden:
            diffs.append(f"{kernel}: unexpected row {counts[kernel]}")
        elif counts[kernel] != golden[kernel]:
            diffs.append(
                f"{kernel}: got {counts[kernel]}, "
                f"golden {golden[kernel]}"
            )
    return diffs


def test_table6_opcounts(benchmark):
    table = run_once(benchmark, run_table6)
    print()
    print(table.format())
    rows = {row[0]: row for row in table.rows}
    # The paper's qualitative distribution: gemm-family kernels carry
    # most of the local-memory traffic; welford / rope are convert-
    # dominated.  (gather_gemv drops out entirely here: its index
    # conversion is rematerialized away, one step beyond the paper's
    # Table 6 snapshot.)
    assert rows["gemm"][1] > 0 and rows["gemm"][3] > 0
    assert "gather_gemv" not in rows
    assert rows["welford"][3] >= 1
    assert rows["rope"][1] == 0 and rows["rope"][3] >= 1


def test_table6_matches_golden():
    """The checked-in golden file stays in lockstep with the engine."""
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    diffs = check_against_golden(table_to_opcounts(run_table6()), golden)
    assert not diffs, "\n".join(diffs)


if __name__ == "__main__":
    table = run_table6()
    counts = table_to_opcounts(table)
    if "--update" in sys.argv:
        with open(GOLDEN_PATH, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {GOLDEN_PATH}")
    elif "--check" in sys.argv:
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)
        diffs = check_against_golden(counts, golden)
        if diffs:
            print(table.format())
            print("\nOP COUNT MISMATCH vs golden:")
            print("\n".join(diffs))
            raise SystemExit(1)
        print(table.format())
        print(f"\nop counts match {GOLDEN_PATH}")
    else:
        print(table.format())
