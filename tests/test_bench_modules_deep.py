"""Deeper tests of the benchmark modules' internals."""

import numpy as np
import pytest

from repro.bench.fig2 import transpose_conversion_cycles
from repro.bench.fig8 import gather_layout
from repro.bench.robustness import CASES, run_robustness
from repro.bench.table5 import linear_case_passes, shape_sweep
from repro.codegen.gather import gather_shuffle_program
from repro.core import REGISTER
from repro.hardware import GH200
from repro.mxfp import F16, F64, F8E5M2, I16, I8, dtype_by_name


class TestFig2Internals:
    def test_modes_differ(self):
        legacy = transpose_conversion_cycles(64, 64, GH200, "legacy")
        linear = transpose_conversion_cycles(64, 64, GH200, "linear")
        assert legacy != linear

    def test_cycles_positive(self):
        assert transpose_conversion_cycles(32, 32, GH200, "linear") > 0


class TestFig8Internals:
    def test_gather_layout_keeps_axis_in_warp(self):
        for axis in (2, 8, 32, 128):
            layout = gather_layout(512, axis)
            program = gather_shuffle_program(layout, 1)
            rounds = program.instrs[0].shuffle_count // layout.in_dim_size(
                REGISTER
            )
            assert rounds == min(axis, 32)

    def test_rounds_monotone(self):
        rounds = [
            gather_shuffle_program(gather_layout(512, a), 1)
            .instrs[0]
            .shuffle_count
            for a in (2, 4, 8, 16, 32)
        ]
        assert rounds == sorted(rounds)


class TestTable5Internals:
    def test_shape_sweep_scales_with_precision(self):
        narrow = shape_sweep(I8, F8E5M2)
        wide = shape_sweep(I16, F64)
        assert len(narrow) > len(wide)

    @pytest.mark.parametrize(
        "a,b", [("i8", "f16"), ("i16", "f8"), ("i32", "f64")]
    )
    def test_linear_numeric_check_passes(self, a, b):
        assert linear_case_passes(
            dtype_by_name(a), dtype_by_name(b), 16, 8, 32
        )


class TestRobustnessInternals:
    def test_every_case_returns_triple(self):
        for case in CASES:
            name, legacy_ok, linear_ok = case()
            assert isinstance(name, str)
            assert linear_ok and not legacy_ok

    def test_table_shape(self):
        table = run_robustness()
        assert len(table.rows) == len(CASES)
