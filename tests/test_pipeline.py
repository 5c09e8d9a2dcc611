"""Pass-pipeline invariants: equivalence, idempotence, diagnostics.

The refactor contract (ISSUE 2): the pass-based pipeline must produce
bit-identical simulated cycles and op counts to the pre-refactor
monolithic engine — held by a checked-in golden file generated from
the pre-refactor engine — and the individual passes must
satisfy their documented invariants (remat is idempotent and never
increases priced cycles; diagnostics are recorded for every pass).
"""

import json
import os

import pytest

from repro.engine import (
    CompilationContext,
    KernelBuilder,
    PassManager,
    compile as compile_graph,
    standard_passes,
)
from repro.engine.ir import OpKind
from repro.engine.passes import AnchorCatalog, balanced_warps
from repro.engine.pipeline import Pass, PassDiagnostics
from repro.hardware.spec import PLATFORMS, RTX4090
from repro.kernels import KERNELS
from repro.mxfp import F16
from repro.serve import CompileRequest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__),
    "..",
    "benchmarks",
    "golden",
    "pipeline_equivalence.json",
)

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)["records"]

#: A representative slice for the per-pass invariant tests (the full
#: golden sweep below covers every kernel).
INVARIANT_KERNELS = ["gemm", "softmax", "welford", "rope", "flex_attention"]


def _compile_golden_case(rec):
    model = KERNELS[rec["kernel"]]
    case = model.cases[0]
    kb = model.build(**case.kwargs())
    return compile_graph(
        kb.graph, spec=PLATFORMS[rec["platform"]], mode=rec["mode"]
    )


class TestGoldenEquivalence:
    """The pipeline reproduces the pre-refactor engine bit-for-bit."""

    @pytest.mark.parametrize(
        "rec",
        GOLDEN,
        ids=lambda r: f"{r['kernel']}-{r['platform']}-{r['mode']}",
    )
    def test_cycles_and_op_counts_match(self, rec):
        compiled = _compile_golden_case(rec)
        assert compiled.ok == rec["ok"]
        if rec["ok"]:
            assert compiled.cycles() == rec["cycles"]
            assert compiled.op_counts() == rec["op_counts"]

    def test_golden_covers_every_kernel_in_both_modes(self):
        kernels = {rec["kernel"] for rec in GOLDEN}
        assert kernels == set(KERNELS)
        modes = {rec["mode"] for rec in GOLDEN}
        assert modes == {"linear", "legacy"}


class TestPublicApi:
    def test_custom_pipeline_is_accepted(self):
        kb = KernelBuilder()
        a = kb.load((64, 64), F16)
        b = kb.load((64, 64), F16)
        kb.store(kb.dot(a, b))
        manager = PassManager(standard_passes("linear"))
        compiled = compile_graph(kb.graph, passes=manager)
        assert compiled.ok and compiled.cycles() > 0

    def test_standard_passes_mode_split_is_declarative(self):
        linear = standard_passes("linear")
        legacy = standard_passes("legacy")
        assert [p.name for p in linear] == [p.name for p in legacy]
        # Same shape, different policies: the remat guard flips.
        lin_remat = next(p for p in linear if p.name == "backward-remat")
        leg_remat = next(p for p in legacy if p.name == "backward-remat")
        assert not lin_remat.require_descriptor
        assert leg_remat.require_descriptor
        with pytest.raises(ValueError):
            standard_passes("turbo")


@pytest.mark.parametrize(
    "entry",
    [
        lambda mode: compile_graph(KernelBuilder().graph, RTX4090, mode),
        lambda mode: CompilationContext.create(
            KernelBuilder().graph, RTX4090, mode
        ),
        lambda mode: CompileRequest("softmax", mode=mode).validate(),
        standard_passes,
    ],
    ids=[
        "compile",
        "CompilationContext.create",
        "CompileRequest.validate",
        "standard_passes",
    ],
)
def test_unknown_mode_rejected_by_the_policy_lookup(entry):
    """Every entry point rejects a bad mode through ``policy_for_mode``."""
    from repro.gpusim.opcost import policy_for_mode

    with pytest.raises(ValueError) as expected:
        policy_for_mode("turbo")
    with pytest.raises(ValueError) as raised:
        entry("turbo")
    assert str(raised.value) == str(expected.value)


def _run_prefix(mode, graph, upto):
    """Run the standard pipeline through the pass named ``upto``."""
    passes = standard_passes(mode)
    names = [p.name for p in passes]
    prefix = passes[: names.index(upto) + 1]
    ctx = CompilationContext.create(graph, RTX4090, mode)
    PassManager(prefix).run(ctx)
    return ctx


@pytest.mark.parametrize("mode", ["linear", "legacy"])
@pytest.mark.parametrize("kernel", INVARIANT_KERNELS)
class TestRematInvariants:
    def _context_after_remat(self, kernel, mode):
        model = KERNELS[kernel]
        kb = model.build(**model.cases[0].kwargs())
        try:
            return _run_prefix(mode, kb.graph, "backward-remat")
        except Exception:
            pytest.skip(f"{kernel} does not compile in {mode} mode")

    def test_remat_is_idempotent(self, kernel, mode):
        """A second remat run finds nothing to eliminate."""
        ctx = self._context_after_remat(kernel, mode)
        ops_after_first = list(ctx.graph.ops)
        remat = next(
            p for p in standard_passes(mode) if p.name == "backward-remat"
        )
        diag = PassDiagnostics(name="backward-remat-again")
        remat.run(ctx, diag)
        assert len(ctx.graph.ops) == len(ops_after_first)
        assert all(
            a is b for a, b in zip(ctx.graph.ops, ops_after_first)
        )
        assert diag.counters.get("conversions_eliminated", 0) == 0

    def test_remat_never_increases_priced_cycles(self, kernel, mode):
        """The remat pass only takes rewrites the cost model approves."""
        model = KERNELS[kernel]
        with_remat = PassManager(standard_passes(mode))
        without_remat = PassManager(
            [p for p in standard_passes(mode)
             if p.name != "backward-remat"]
        )
        kb1 = model.build(**model.cases[0].kwargs())
        kb2 = model.build(**model.cases[0].kwargs())
        full = compile_graph(kb1.graph, RTX4090, mode, passes=with_remat)
        bare = compile_graph(kb2.graph, RTX4090, mode, passes=without_remat)
        if not (full.ok and bare.ok):
            pytest.skip(f"{kernel} does not compile in {mode} mode")
        assert full.cycles() <= bare.cycles()
        assert (
            full.graph.count(OpKind.CONVERT_LAYOUT)
            <= bare.graph.count(OpKind.CONVERT_LAYOUT)
        )


class TestDiagnostics:
    def _compiled_gemm(self):
        model = KERNELS["gemm"]
        kb = model.build(**model.cases[0].kwargs())
        return compile_graph(kb.graph)

    def test_every_pass_leaves_a_record(self):
        compiled = self._compiled_gemm()
        names = [diag.name for diag in compiled.diagnostics]
        assert names == [
            "anchor-selection",
            "forward-propagation",
            "backward-remat",
            "lower-to-plans",
            "cost-summary",
        ]
        for diag in compiled.diagnostics:
            assert diag.wall_time_ms >= 0.0

    def test_counters_follow_the_documented_schema(self):
        compiled = self._compiled_gemm()
        by_name = {d.name: d for d in compiled.diagnostics}
        assert by_name["anchor-selection"].counters["anchors_assigned"] > 0
        forward = by_name["forward-propagation"].counters
        assert forward["conversions_inserted"] > 0
        lower = by_name["lower-to-plans"].counters
        assert lower["ops_lowered"] == len(compiled.graph.ops)
        summary = by_name["cost-summary"].counters
        assert summary["cycles"] == compiled.cycles()

    def test_pass_diagnostics_are_json_serializable(self):
        compiled = self._compiled_gemm()
        payload = json.dumps(compiled.pass_diagnostics())
        records = json.loads(payload)
        assert len(records) == len(compiled.diagnostics)
        assert all("wall_time_ms" in rec for rec in records)

    def test_describe_passes_mentions_every_pass(self):
        compiled = self._compiled_gemm()
        text = compiled.describe_passes()
        for diag in compiled.diagnostics:
            assert diag.name in text

    def test_failed_compilation_keeps_partial_diagnostics(self):
        class Boom(Pass):
            name = "boom"

            def run(self, ctx, diag):
                from repro.core.errors import LegacyUnsupportedError

                raise LegacyUnsupportedError("synthetic failure")

        kb = KernelBuilder()
        kb.store(kb.load((32, 32), F16))
        compiled = compile_graph(
            kb.graph, RTX4090, "linear", passes=PassManager([Boom()])
        )
        assert not compiled.ok
        assert compiled.diagnostics[0].name == "boom"
        assert any(
            "LegacyUnsupportedError" in note
            for note in compiled.diagnostics[0].notes
        )

    def test_cost_summary_requires_a_trace(self):
        from repro.engine.passes import CostSummary

        kb = KernelBuilder()
        kb.store(kb.load((32, 32), F16))
        ctx = CompilationContext.create(kb.graph, RTX4090, "linear")
        with pytest.raises(ValueError, match="lowered trace"):
            CostSummary().run(ctx, PassDiagnostics(name="cost-summary"))


class TestAnchorSelection:
    def test_balanced_warps_prefers_longer_dimension(self):
        assert balanced_warps(4, 128, 32, 16, 8) == (4, 1)
        wm, wn = balanced_warps(4, 64, 64, 16, 8)
        assert wm * wn == 4

    def test_catalog_memoizes_blocked_anchors(self):
        catalog = AnchorCatalog(RTX4090, 4)
        first = catalog.blocked_anchor((64, 64), F16)
        again = catalog.blocked_anchor((64, 64), F16)
        assert first[1] is again[1]

    def test_anchor_pass_assigns_every_load(self):
        ctx = _run_prefix(
            "linear",
            KERNELS["gemm"]
            .build(**KERNELS["gemm"].cases[0].kwargs())
            .graph,
            "anchor-selection",
        )
        loads = [op for op in ctx.graph.ops if op.kind == OpKind.LOAD]
        assert loads and all(
            op.output.layout is not None for op in loads
        )


#: Every fig9 compile: each kernel case on each of its platforms, in
#: both modes (458 compiles).
FIG9_SUITE = [
    (model, case, platform, mode)
    for _name, model in sorted(KERNELS.items())
    for case in model.cases
    for platform in model.platforms
    for mode in ("linear", "legacy")
]


def _compile_fig9(model, case, platform, mode):
    kb = model.build(**case.kwargs())
    return compile_graph(kb.graph, spec=PLATFORMS[platform], mode=mode)


def _assert_users_map_exact(graph, users):
    """``users`` is ``graph.users_of`` of every value, in op order."""
    for value in graph.values:
        assert [id(op) for op in users.get(id(value), ())] == [
            id(op) for op in graph.users_of(value)
        ], f"users of {value!r}"


class TestWarmPathOracles:
    """The warm-path fast paths against their slow oracles."""

    def test_users_map_matches_users_of_before_and_after_remat(self, monkeypatch):
        """Every users map a pass builds — and every remat round's map
        after its in-place rewrites — equals ``Graph.users_of``."""
        from repro.engine.ir import Graph

        real = Graph.users_map
        handed_out = []  # [graph, users map] of the current compile

        def spy(graph):
            # The previous remat round's map, updated as it rewrote
            # chains, must describe the graph this round starts from.
            if handed_out and handed_out[-1][0] is graph:
                _assert_users_map_exact(graph, handed_out[-1][1])
            users = real(graph)
            _assert_users_map_exact(graph, users)
            handed_out.append([graph, users])
            return users

        monkeypatch.setattr(Graph, "users_map", spy)
        eliminated = 0
        for model, case, platform, mode in FIG9_SUITE:
            handed_out.clear()
            compiled = _compile_fig9(model, case, platform, mode)
            assert compiled.ok
            remat = next(d for d in compiled.diagnostics if d.name == "backward-remat")
            eliminated += remat.counters.get("conversions_eliminated", 0)
            # Forward propagation's map, then one per remat round.
            assert len(handed_out) == 1 + remat.counters["rounds"]
            graph, users = handed_out[-1]
            assert graph is compiled.graph
            _assert_users_map_exact(graph, users)
        assert eliminated > 0  # the rewrite path was exercised

    def test_bill_matches_total_and_per_instruction_sums(self):
        """One pricing loop: the total is ``total_cycles`` (an exact
        int) and each kind is the in-order float sum of its records."""
        from repro.hardware.cost import cost_model

        for model, case, platform, mode in FIG9_SUITE:
            compiled = _compile_fig9(model, case, platform, mode)
            model_ = cost_model(PLATFORMS[platform])
            instructions = compiled.trace.instructions
            total, by_kind = model_.bill(instructions)
            assert type(total) is int
            assert total == model_.total_cycles(instructions)
            assert total == compiled.cycles()
            expected = {}
            for inst in instructions:
                kind = inst.kind.value
                expected[kind] = expected.get(kind, 0.0) + model_.instruction_cycles(inst)
            assert by_kind == expected
            assert all(type(v) is float for v in by_kind.values())
            counters = compiled.diagnostics[-1].counters
            assert counters["cycles"] == total
            assert {
                k[len("cycles[") : -1]: v for k, v in counters.items() if k.startswith("cycles[")
            } == by_kind

    @pytest.mark.parametrize("mode", ["linear", "legacy"])
    @pytest.mark.parametrize("kernel", INVARIANT_KERNELS)
    def test_summary_identical_with_caches_off(self, kernel, mode):
        """Folded dot anchors and the users map change no output."""
        from repro import cache

        model = KERNELS[kernel]
        for platform in model.platforms:
            cached = _compile_fig9(model, model.cases[0], platform, mode)
            with cache.disabled():
                uncached = _compile_fig9(model, model.cases[0], platform, mode)
            assert cached.summary() == uncached.summary()
