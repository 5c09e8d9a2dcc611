"""Tests for the kernel-model suite and the benchmark harness."""

import numpy as np
import pytest

from repro.bench.harness import Table, geomean
from repro.core.dims import WARP
from repro.engine import compile
from repro.engine.ir import OpKind
from repro.gpusim.opcost import program_price
from repro.hardware import PLATFORMS, RTX4090
from repro.interp import execute_graph
from repro.kernels import KERNELS, kernel_names
from repro.serve import CompileRequest


def _fig9_requests(first_case_only):
    """Fig9 compiles: every kernel, case and platform in both modes."""
    return [
        CompileRequest(name, case.name, platform, mode)
        for mode in ("linear", "legacy")
        for name, model in sorted(KERNELS.items())
        for case in (model.cases[:1] if first_case_only else model.cases)
        for platform in model.platforms
    ]


def _request_id(request):
    return (
        f"{request.kernel}/{request.case}@{request.platform}"
        f"/{request.mode}"
    )


def _graph_inputs(graph, rng):
    """One array per LOAD, in program order; index loads hold
    integers below the size of the axis they gather along."""
    bounds = {
        op.inputs[1].vid: op.inputs[0].shape[op.attrs["axis"]]
        for op in graph.ops
        if op.kind == OpKind.GATHER
    }
    return [
        rng.integers(0, bounds[op.output.vid], size=op.output.shape)
        if op.output.vid in bounds
        else rng.standard_normal(op.output.shape)
        for op in graph.ops
        if op.kind == OpKind.LOAD
    ]


def _assert_every_conversion_simulated(request):
    """The compiled kernel's stores equal the source graph's, and each
    CONVERT_LAYOUT ran its compiled plan on the simulated machine: the
    run's trace is the plan's static price at the conversion's warp
    count."""
    model = KERNELS[request.kernel]
    source = model.build(**request.resolved_case().kwargs()).graph
    inputs = _graph_inputs(source, np.random.default_rng(0))
    reference = execute_graph(source, inputs).stores
    compiled = request.build_and_compile()
    assert compiled.ok, compiled.error
    result = execute_graph(compiled, inputs)
    converts = [
        op for op in compiled.graph.ops if op.kind == OpKind.CONVERT_LAYOUT
    ]
    assert len(result.conversion_traces) == len(converts)
    spec = PLATFORMS[request.platform]
    for op, plan, trace in zip(
        converts, compiled.conversions, result.conversion_traces
    ):
        warps = max(
            op.inputs[0].layout.in_dim_size(WARP),
            op.output.layout.in_dim_size(WARP),
        )
        assert trace.spec is spec
        assert trace.cycles() == program_price(plan.program, spec, warps)[1]
    assert len(result.stores) == len(reference)
    for want, got in zip(reference, result.stores):
        assert np.allclose(want, got)


class TestRegistry:
    def test_has_the_suite(self):
        names = kernel_names()
        assert len(names) >= 20
        for required in ("gemm", "int4_gemm", "template_attention",
                         "welford", "gather_gemv", "rope", "embedding"):
            assert required in names

    def test_every_model_has_cases_and_platforms(self):
        for model in KERNELS.values():
            assert model.cases
            assert model.platforms
            for platform in model.platforms:
                assert platform in PLATFORMS

    def test_case_kwargs(self):
        case = KERNELS["gemm"].cases[0]
        assert isinstance(case.kwargs(), dict)


class TestCompilation:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_first_case_compiles_both_modes(self, name):
        model = KERNELS[name]
        case = model.cases[0]
        spec = PLATFORMS[model.platforms[0]]
        for mode in ("linear", "legacy"):
            compiled = compile(model.build(**case.kwargs()).graph, spec, mode)
            assert compiled.ok, (name, mode, compiled.error)
            assert compiled.cycles() > 0

    @pytest.mark.parametrize(
        "name", ["gemm", "softmax", "welford", "rope"]
    )
    def test_linear_not_slower(self, name):
        # The smallest tiles may regress slightly (the paper's Figure
        # 9 bottoms out at 0.96x), so check a mid-sized case.
        model = KERNELS[name]
        case = model.cases[min(1, len(model.cases) - 1)]
        spec = PLATFORMS[model.platforms[0]]
        linear = compile(model.build(**case.kwargs()).graph, spec, "linear")
        legacy = compile(model.build(**case.kwargs()).graph, spec, "legacy")
        assert linear.cycles() <= legacy.cycles() * 1.05


class TestNumericEquivalence:
    @pytest.mark.parametrize("name", ["softmax", "layer_norm", "gemm"])
    def test_compiled_graph_preserves_semantics(self, name):
        model = KERNELS[name]
        case = model.cases[0]
        rng = np.random.default_rng(42)

        def inputs_for(graph):
            from repro.engine.ir import OpKind

            out = []
            for op in graph.ops:
                if op.kind == OpKind.LOAD:
                    out.append(rng.standard_normal(op.output.shape))
            return out

        reference_graph = model.build(**case.kwargs()).graph
        inputs = inputs_for(reference_graph)
        reference = execute_graph(reference_graph, inputs).stores

        compiled = compile(
            model.build(**case.kwargs()).graph, RTX4090, "linear"
        )
        rng = np.random.default_rng(42)
        result = execute_graph(compiled, inputs).stores
        for want, got in zip(reference, result):
            assert np.allclose(want, got), name


class TestEveryConversionSimulated:
    @pytest.mark.parametrize(
        "request_", _fig9_requests(True), ids=_request_id
    )
    def test_first_case_on_every_platform(self, request_):
        _assert_every_conversion_simulated(request_)

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "request_", _fig9_requests(False), ids=_request_id
    )
    def test_every_case_on_every_platform(self, request_):
        _assert_every_conversion_simulated(request_)


class TestHarness:
    def test_table_formatting(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2.5)
        text = table.format()
        assert "T" in text and "2.50" in text

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("b") == [2, 4]

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_to_dict(self):
        table = Table("T", ["a"])
        table.add_row(1)
        d = table.to_dict()
        assert d["rows"] == [[1]]


class TestBenchModules:
    """Smoke tests: every experiment runs and has the paper's shape."""

    def test_fig2_smoke(self):
        from repro.bench.fig2 import run_fig2

        table = run_fig2(sizes=(32, 64))
        assert len(table.rows) == 4

    def test_table3_pattern(self):
        from repro.bench.table3 import run_table3

        table = run_table3()
        gains = table.column("gain")
        assert "+700%" in gains

    def test_table4_pass_rates(self):
        from repro.bench.table4 import run_table4

        table = run_table4()
        linear_passes = table.column("Triton-Linear pass")
        assert all(p.split("/")[0] == p.split("/")[1]
                   for p in linear_passes)

    @pytest.mark.slow
    def test_fig7_all_above_one(self):
        from repro.bench.fig7 import run_fig7

        table = run_fig7(sizes=(32, 64))
        assert all(s > 1.0 for s in table.column("speedup"))

    @pytest.mark.slow
    def test_fig8_crossover(self):
        from repro.bench.fig8 import run_fig8

        table = run_fig8(axis_sizes=(2, 8, 32, 64))
        f16 = [r[4] for r in table.rows if r[1] == "f16"]
        assert f16[0] > f16[-1]
        assert f16[-1] <= 1.05

    @pytest.mark.slow
    def test_fig6_f16_dominates(self):
        from repro.bench.fig6 import run_fig6

        table = run_fig6(sizes=(1024,))
        rows = {r[0]: r[4] for r in table.rows}
        assert rows["f16"] > rows["bf16"]
