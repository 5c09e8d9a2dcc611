"""Tests for the scan op and the legacy scan bugs the paper cites.

"This has been a persistent source of bugs in Triton over the past
few years" (Section 5.1) — two of the cited issues are scans:
triton-lang/triton#3017 (tl.sum + tl.cumsum in one kernel) and #4362
(associative_scan with reverse=True).
"""

import numpy as np
import pytest

from repro.engine import KernelBuilder, compile
from repro.hardware import RTX4090
from repro.interp import execute_graph
from repro.layouts.legacy import LegacyLayoutSystem
from repro.layouts import BlockedLayout
from repro.core.errors import LegacyUnsupportedError
from repro.mxfp import F32


def scan_kernel(reverse=False, with_reduce=False, rows=64, cols=64):
    kb = KernelBuilder("scan")
    x = kb.load((rows, cols), F32)
    if with_reduce:
        # Issue #3017's shape: a reduce and a scan over the same value.
        total = kb.reduce(x, axis=1, op="sum")
        total2 = kb.broadcast(kb.expand_dims(total, 1), (rows, cols))
        x = kb.elementwise(x, total2, name="div")
    kb.store(kb.scan(x, axis=1, op="sum", reverse=reverse))
    return kb


class TestInterpreter:
    def test_cumsum(self):
        kb = scan_kernel()
        data = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
        out = execute_graph(kb.graph, [data]).stores[0]
        assert np.array_equal(out, np.cumsum(data, axis=1))

    def test_reverse_cumsum(self):
        kb = scan_kernel(reverse=True)
        data = np.ones((64, 64))
        out = execute_graph(kb.graph, [data]).stores[0]
        assert np.array_equal(out[:, 0], np.full(64, 64.0))
        assert np.array_equal(out[:, -1], np.ones(64))

    def test_cummax_cumprod(self):
        kb = KernelBuilder()
        x = kb.load((4, 8), F32)
        kb.store(kb.scan(x, axis=1, op="max"))
        kb.store(kb.scan(x, axis=1, op="mul"))
        data = np.array([[3, 1, 4, 1, 5, 9, 2, 6]] * 4, dtype=float)
        res = execute_graph(kb.graph, [data])
        assert np.array_equal(
            res.stores[0], np.maximum.accumulate(data, axis=1)
        )
        assert np.array_equal(
            res.stores[1], np.cumprod(data, axis=1)
        )


class TestEngineLowering:
    def test_linear_compiles_everything(self):
        for reverse in (False, True):
            for with_reduce in (False, True):
                compiled = compile(
                    scan_kernel(reverse, with_reduce).graph, RTX4090, "linear"
                )
                assert compiled.ok, (reverse, with_reduce)

    def test_legacy_fails_reverse(self):
        """Issue #4362 as a behavioural failure."""
        compiled = compile(scan_kernel(reverse=True).graph, RTX4090, "legacy")
        assert not compiled.ok
        assert "reverse=True" in compiled.error

    def test_legacy_forward_scan_ok(self):
        compiled = compile(scan_kernel(reverse=False).graph, RTX4090, "legacy")
        assert compiled.ok

    def test_scan_emits_shuffles(self):
        from repro.hardware.instructions import InstructionKind

        compiled = compile(scan_kernel().graph, RTX4090, "linear")
        assert compiled.trace.count(InstructionKind.SHUFFLE) > 0

    def test_numerics_through_compilation(self):
        rng = np.random.default_rng(31)
        data = rng.standard_normal((64, 64))
        reference = execute_graph(
            scan_kernel().graph, [data]
        ).stores[0]
        compiled = compile(scan_kernel().graph, RTX4090, "linear")
        result = execute_graph(compiled, [data]).stores[0]
        assert np.allclose(result, reference)


class TestLegacyGates:
    def setup_method(self):
        self.legacy = LegacyLayoutSystem()
        self.blocked = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))

    def test_reverse_rejected(self):
        assert not self.legacy.supports_scan(self.blocked, True, False)
        with pytest.raises(LegacyUnsupportedError):
            self.legacy.check_scan(self.blocked, True, False)

    def test_duplicates_rejected(self):
        """Issue #3017: duplicated data combined twice."""
        assert not self.legacy.supports_scan(self.blocked, False, True)

    def test_plain_scan_ok(self):
        assert self.legacy.supports_scan(self.blocked, False, False)
