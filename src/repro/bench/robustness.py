"""The robustness claim as a table: bug classes fixed by linear layouts.

"12% of bugs filed in Triton's GitHub repository are layout-related"
(Section 1); the evaluation shows linear layouts eliminating whole
classes of them.  Each row here is one such class, reproduced
behaviourally: the legacy system fails (or would miscompile) while the
linear engine compiles and passes the numeric check.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.bench.harness import Table
from repro.engine import KernelBuilder, compile
from repro.hardware.spec import GH200, RTX4090
from repro.interp import execute_graph
from repro.mxfp import F32, F8E5M2, I8


def _compiles(kb: KernelBuilder, spec, mode: str) -> bool:
    return compile(kb.graph, spec, mode).ok


def _case_reduce_over_operand() -> Tuple[str, bool, bool]:
    """Reductions over MMA-input layouts (Table 4's 0/10 rows)."""
    from repro.layouts import MmaOperandLayout, NvidiaMmaLayout
    from repro.layouts.legacy import LegacyLayoutSystem

    operand = MmaOperandLayout(NvidiaMmaLayout((2, 2)), 0, 2)
    legacy_ok = LegacyLayoutSystem().supports_reduction(operand)
    from repro.layouts.sliced import slice_linear_layout

    sliced = slice_linear_layout(operand.to_linear((64, 64)), 1)
    linear_ok = sliced.is_surjective()
    return "reduce over MMA-input layout", legacy_ok, linear_ok


def _case_small_shape_mma() -> Tuple[str, bool, bool]:
    """Low-precision matmuls on small K (Table 5)."""
    def build():
        kb = KernelBuilder()
        a = kb.load((16, 8), I8)
        b = kb.load((8, 8), F8E5M2)
        kb.store(kb.dot(a, b))
        return kb

    from repro.layouts.legacy import LegacyLayoutSystem

    legacy_ok = LegacyLayoutSystem().supports_mma_shape(
        I8, F8E5M2, 16, 8, 8
    )
    linear_ok = _compiles(build(), GH200, "linear")
    return "i8 x f8 matmul at K=8", legacy_ok, linear_ok


def _case_reverse_scan() -> Tuple[str, bool, bool]:
    """associative_scan(reverse=True) — triton-lang/triton#4362."""
    def build():
        kb = KernelBuilder()
        x = kb.load((64, 64), F32)
        kb.store(kb.scan(x, axis=1, reverse=True))
        return kb

    legacy_ok = _compiles(build(), RTX4090, "legacy")
    linear = compile(build().graph, RTX4090, "linear")
    data = np.ones((64, 64))
    linear_ok = (
        linear.ok and execute_graph(linear, [data]).stores[0][0, 0] == 64.0
    )
    return "reverse associative scan (#4362)", legacy_ok, linear_ok


def _case_scan_with_duplicates() -> Tuple[str, bool, bool]:
    """tl.sum + tl.cumsum in one kernel — triton-lang/triton#3017."""
    from repro.layouts import BlockedLayout
    from repro.layouts.legacy import LegacyLayoutSystem

    desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
    legacy_ok = LegacyLayoutSystem().supports_scan(desc, False, True)
    # The linear engine identifies duplicates from zero columns and
    # combines each element once.
    from repro.layouts.sliced import slice_linear_layout

    sliced = slice_linear_layout(desc.to_linear((16, 32)), 1)
    linear_ok = any(sliced.free_variable_masks().values())
    return "scan over duplicated data (#3017)", legacy_ok, linear_ok


def _case_transpose_mma() -> Tuple[str, bool, bool]:
    """tt.trans of an MMA layout: inexpressible in legacy (Sec 4.4)."""
    from repro.core.reshape import transpose_layout
    from repro.engine.propagate import forward_descriptor
    from repro.engine.ir import Op, OpKind
    from repro.layouts import NvidiaMmaLayout

    mma = NvidiaMmaLayout((2, 2))
    fake = Op(OpKind.TRANS, [], None, {"perm": (1, 0)})
    legacy_ok = forward_descriptor(fake, mma) is not None
    linear_ok = transpose_layout(
        mma.to_linear((32, 64)), (1, 0)
    ).is_surjective()
    return "transpose of an MMA layout", legacy_ok, linear_ok


def _case_cross_kind_equivalence() -> Tuple[str, bool, bool]:
    """Recognizing a Sliced and a Blocked layout as the same map."""
    from repro.layouts import BlockedLayout, SlicedLayout
    from repro.layouts.legacy import LegacyLayoutSystem

    blocked1d = BlockedLayout((1,), (32,), (4,), (0,))
    parent = BlockedLayout((1, 1), (32, 1), (4, 1), (1, 0))
    sliced = SlicedLayout(parent, 1, 1)
    legacy_ok = LegacyLayoutSystem().can_compare(sliced, blocked1d)
    linear_ok = sliced.to_linear((128,)).equivalent(
        blocked1d.to_linear((128,))
    )
    return "cross-kind layout equivalence (welford)", legacy_ok, linear_ok


CASES: List[Callable[[], Tuple[str, bool, bool]]] = [
    _case_reduce_over_operand,
    _case_small_shape_mma,
    _case_reverse_scan,
    _case_scan_with_duplicates,
    _case_transpose_mma,
    _case_cross_kind_equivalence,
]


def run_robustness() -> Table:
    """Evaluate every bug-class case and tabulate legacy vs linear."""
    table = Table(
        title="Robustness: layout bug classes fixed by linear layouts",
        headers=["bug class", "legacy", "linear"],
    )
    for case in CASES:
        name, legacy_ok, linear_ok = case()
        table.add_row(
            name,
            "ok" if legacy_ok else "FAILS",
            "ok" if linear_ok else "FAILS",
        )
    table.notes.append(
        "each row reproduces one documented legacy failure mode "
        "behaviourally; see the paper's Section 5.1 and Tables 4-5"
    )
    return table
