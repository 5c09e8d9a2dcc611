"""Tests for the backward rematerialization pass (Section 4.4)."""

import numpy as np
import pytest

from repro import cache
from repro.codegen import conversion, plan_conversion
from repro.core.errors import LayoutError
from repro.engine import KernelBuilder, compile
from repro.engine.ir import Graph, Op, OpKind
from repro.engine.passes.remat import BackwardRematerialization
from repro.engine.pipeline import CompilationContext, PassDiagnostics
from repro.gpusim import opcost
from repro.hardware import RTX4090
from repro.interp import execute_graph
from repro.layouts import BlockedLayout, CtaLayout
from repro.mxfp import F16, F32


def count_converts(compiled):
    return compiled.graph.count(OpKind.CONVERT_LAYOUT)


class TestRematerialization:
    def test_single_use_load_reanchored(self):
        """A load feeding only a dot operand re-anchors in the operand
        layout; its conversion disappears."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "linear")
        # Without remat: 2 operand conversions + 1 epilogue = 3.
        assert count_converts(compiled) < 3
        loads = [
            op for op in compiled.graph.ops if op.kind == OpKind.LOAD
        ]
        # At least one load now carries a non-blocked (operand) layout.
        from repro.layouts.mma import MmaOperandLayout

        assert any(
            isinstance(ld.output.descriptor, MmaOperandLayout)
            for ld in loads
        )

    def test_elementwise_chain_rematerialized(self):
        """load -> exp -> dot: the unary chain re-anchors too."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        a = kb.elementwise(a, name="exp")
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "linear")
        assert count_converts(compiled) < 3

    def test_multi_use_load_not_rematerialized(self):
        """A load with two consumers keeps its coalesced layout (one
        consumer would pay uncoalesced access otherwise)."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        c = kb.dot(a, b)
        d = kb.elementwise(a, name="exp")  # second use of a
        kb.store(c)
        kb.store(d)
        compiled = compile(kb.graph, RTX4090, "linear")
        loads = [
            op for op in compiled.graph.ops if op.kind == OpKind.LOAD
        ]
        from repro.layouts.blocked import BlockedLayout

        a_load = loads[0]
        assert isinstance(a_load.output.descriptor, BlockedLayout)

    def test_remat_never_increases_cost(self):
        """Compare against a pipeline without the remat pass."""
        from repro.engine import PassManager, standard_passes

        def build():
            kb = KernelBuilder()
            a = kb.load((64, 64), F16)
            b = kb.load((64, 64), F16)
            kb.store(kb.dot(a, b))
            return kb

        with_remat = compile(build().graph, RTX4090, "linear")

        no_remat = PassManager(
            [p for p in standard_passes("linear")
             if p.name != "backward-remat"]
        )
        without = compile(build().graph, RTX4090, "linear", passes=no_remat)
        assert with_remat.cycles() <= without.cycles()

    def test_numerics_preserved_through_remat(self):
        kb = KernelBuilder()
        a = kb.load((32, 32), F16)
        a2 = kb.elementwise(a, name="exp")
        b = kb.load((32, 32), F16)
        kb.store(kb.dot(a2, b))
        rng = np.random.default_rng(21)
        inputs = [rng.standard_normal((32, 32)) * 0.1 for _ in range(2)]
        reference_kb = KernelBuilder()
        ra = reference_kb.load((32, 32), F16)
        ra2 = reference_kb.elementwise(ra, name="exp")
        rb = reference_kb.load((32, 32), F16)
        reference_kb.store(reference_kb.dot(ra2, rb))
        reference = execute_graph(reference_kb.graph, inputs).stores[0]
        compiled = compile(kb.graph, RTX4090, "linear")
        result = execute_graph(compiled, inputs).stores[0]
        assert np.allclose(result, reference)

    def test_legacy_remat_requires_known_descriptor(self):
        """Legacy mode only re-anchors layouts it can name; the
        compilation still succeeds either way."""
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        compiled = compile(kb.graph, RTX4090, "legacy")
        assert compiled.ok


# ----------------------------------------------------------------------
# A conversion is planned only when its price can decide
# ----------------------------------------------------------------------
def _load_convert_store(src_desc, dst_desc, shape=(32, 32)):
    """load -> convert_layout -> store, with the given descriptors."""
    graph = Graph()
    loaded = graph.new_value(shape, F16)
    load = graph.add(Op(OpKind.LOAD, [], loaded))
    converted = graph.new_value(shape, F16)
    graph.add(Op(OpKind.CONVERT_LAYOUT, [loaded], converted))
    graph.add(Op(OpKind.STORE, [converted], None))
    for value, desc in ((loaded, src_desc), (converted, dst_desc)):
        value.layout, value.descriptor = desc.to_linear(shape), desc
    return graph, load


def _run_remat(graph):
    ctx = CompilationContext.create(graph, RTX4090, "linear")
    diag = PassDiagnostics("backward-remat")
    BackwardRematerialization().run(ctx, diag)
    return diag


@pytest.fixture
def planned(monkeypatch):
    """The (src, dst) of every conversion the cost model plans."""
    calls = []
    real = opcost.plan_conversion

    def recording(src, dst, *args, **kwargs):
        calls.append((src, dst))
        return real(src, dst, *args, **kwargs)

    monkeypatch.setattr(opcost, "plan_conversion", recording)
    return calls


def test_no_dearer_load_eliminates_without_planning(planned):
    """Re-anchoring at the same vector width costs the load no more,
    so the conversion goes without being planned or priced."""
    src = BlockedLayout((1, 8), (8, 4), (4, 1), (1, 0))
    dst = BlockedLayout((1, 8), (16, 2), (2, 2), (1, 0))
    graph, load = _load_convert_store(src, dst)
    diag = _run_remat(graph)
    assert planned == []
    assert diag.counters["conversions_eliminated"] == 1
    assert graph.count(OpKind.CONVERT_LAYOUT) == 0
    assert load.output.descriptor == dst
    assert load.output.layout == dst.to_linear((32, 32))


def test_dearer_load_plans_the_conversion(planned):
    """A narrower re-anchored load leaves the decision to the
    conversion's price, which is then planned once."""
    src = BlockedLayout((1, 8), (8, 4), (4, 1), (1, 0))
    dst = BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0))
    graph, load = _load_convert_store(src, dst)
    _run_remat(graph)
    shape = (32, 32)
    assert planned == [(src.to_linear(shape), dst.to_linear(shape))]


def test_refused_conversion_is_eliminated_unplanned(planned):
    """A cross-CTA conversion the planner refuses with ``LayoutError``
    is still eliminated when re-anchoring costs the load no more: its
    price never decides, so it is never planned."""
    a = BlockedLayout(
        (1, 2), (4, 8), (2, 2), (1, 0), cta=CtaLayout((2, 1), (2, 1), (1, 0))
    )
    b = BlockedLayout(
        (1, 2), (8, 4), (2, 2), (1, 0), cta=CtaLayout((1, 2), (1, 2), (1, 0))
    )
    shape = (32, 32)
    with pytest.raises(LayoutError):
        plan_conversion(a.to_linear(shape), b.to_linear(shape), 16)
    planned.clear()
    graph, load = _load_convert_store(a, b, shape)
    diag = _run_remat(graph)
    assert planned == []
    assert diag.counters["conversions_eliminated"] == 1
    assert load.output.descriptor == b


def test_cold_fig9_pass_plans_325_conversions(monkeypatch):
    """A cold fig9 pass runs the planner 325 times: remat plans no
    conversion whose price cannot decide (pricing every one would
    plan 361)."""
    from tests.test_pipeline import FIG9_SUITE, _compile_fig9

    runs = []
    real = conversion._plan_conversion_uncached

    def counting(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(conversion, "_plan_conversion_uncached", counting)
    cache.clear()
    for model, case, platform, mode in FIG9_SUITE:
        _compile_fig9(model, case, platform, mode)
    assert len(runs) == 325
