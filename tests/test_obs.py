"""The observability layer's contract (``docs/OBSERVABILITY.md``).

Four families of guarantees:

* **Spans** — per-thread hierarchy (parent = enclosing span, trace id
  inherited, roots start fresh traces), completion ordering, error
  status propagation, and the bounded recorder.
* **Metrics** — label-set identity, counter family sums, gauge
  last-write-wins, histogram summaries.
* **Exporters** — Chrome trace validity and its summary, and the CLI
  ``check`` and ``summary`` paths, including a clean failure on files
  that are not a Chrome trace.
* **Transparency** — observability off is a true no-op (the same
  singleton span, no counters), and compiles/conversions are
  bit-identical whether recording is on or off.

Plus the satellite regression: one :class:`CostModel` per
:class:`GpuSpec`, shared by every :class:`Trace`.
"""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro import cache
from repro import obs
from repro.codegen import plan_conversion
from repro.gpusim import Machine, distributed_data
from repro.gpusim.trace import Trace
from repro.hardware import RTX4090
from repro.hardware.cost import CostModel, cost_model
from repro.hardware.instructions import InstructionKind
from repro.obs import core as obs_core
from repro.serve import CompileRequest, CompileService
from tests.register_reference import as_dict
from tests.test_random_layout_conversions import random_distributed_layout


def counter_value(registry, name, **labels):
    """One counter series' value in a metrics registry (0 when never
    bumped).  With no labels given and no unlabeled series, the sum
    over every series of ``name``: ``counter_value(reg, "cache.hits")``
    is total hits across caches."""
    series = {
        tuple(sorted(row["labels"].items())): row["value"]
        for row in registry.snapshot()["counters"]
        if row["name"] == name
    }
    key = tuple(sorted(labels.items()))
    if key in series:
        return series[key]
    return 0.0 if labels else sum(series.values())


@pytest.fixture(autouse=True)
def obs_disabled():
    """Every test starts and ends with observability off."""
    assert not obs.is_enabled()
    yield
    assert not obs.is_enabled()


# ======================================================================
# Spans
# ======================================================================
class TestSpans:
    def test_nesting_parent_and_trace_ids(self):
        with obs.capture() as rec:
            with obs.span("outer", level=0) as outer:
                with obs.span("mid") as mid:
                    with obs.span("inner") as inner:
                        pass
        assert mid.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert outer.parent_id is None
        assert inner.trace_id == mid.trace_id == outer.trace_id
        # Completion order: innermost finishes (and records) first.
        assert [s.name for s in rec.spans()] == ["inner", "mid", "outer"]

    def test_sibling_roots_get_fresh_traces(self):
        with obs.capture() as rec:
            with obs.span("root-a"):
                pass
            with obs.span("root-b"):
                pass
        a, b = rec.spans()
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_child_interval_inside_parent(self):
        with obs.capture() as rec:
            with obs.span("parent"):
                with obs.span("child"):
                    pass
        child, parent = rec.spans()
        assert parent.start_us <= child.start_us
        assert child.end_us <= parent.end_us
        assert child.duration_us >= 0

    def test_exception_marks_error_status(self):
        with obs.capture() as rec:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
        (sp,) = rec.spans()
        assert sp.status == "error"
        assert "ValueError: boom" in sp.attrs["error"]
        assert sp.end_us is not None  # still timed and recorded

    def test_attrs_from_kwargs_and_setters(self):
        with obs.capture() as rec:
            with obs.span("op", mode="linear") as sp:
                sp.set("cycles", 42)
                sp.set_attrs({"ok": True})
        (sp,) = rec.spans()
        assert sp.attrs == {"mode": "linear", "cycles": 42, "ok": True}
        trace = obs.chrome_trace(rec)
        (event,) = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert event["name"] == "op"
        json.dumps(trace)  # every attribute must be JSON-serializable

    def test_threads_get_independent_hierarchies(self):
        with obs.capture() as rec:
            def work():
                with obs.span("thread-root"):
                    with obs.span("thread-child"):
                        pass

            with obs.span("main-root"):
                t = threading.Thread(target=work, name="obs-worker")
                t.start()
                t.join()
        by_name = {s.name: s for s in rec.spans()}
        # The other thread's root is a root — not a child of main-root.
        assert by_name["thread-root"].parent_id is None
        assert by_name["thread-root"].trace_id != (
            by_name["main-root"].trace_id
        )
        assert by_name["thread-child"].parent_id == (
            by_name["thread-root"].span_id
        )
        assert by_name["thread-root"].thread_name == "obs-worker"

    def test_recorder_bound_drops_past_max_spans(self):
        with obs.capture(max_spans=3) as rec:
            for i in range(5):
                with obs.span(f"s{i}"):
                    pass
        assert len(rec.spans()) == 3
        assert rec.dropped_spans == 2
        assert obs.chrome_trace(rec)["otherData"]["dropped_spans"] == 2

    def test_capture_restores_previous_state(self):
        assert not obs.is_enabled()
        with obs.capture() as outer_rec:
            with obs.capture() as inner_rec:
                obs.count("x")
            obs.count("y")
            assert counter_value(inner_rec.metrics, "x") == 1
            assert counter_value(inner_rec.metrics, "y") == 0
            assert counter_value(outer_rec.metrics, "x") == 0
            assert counter_value(outer_rec.metrics, "y") == 1
        assert not obs.is_enabled()


# ======================================================================
# Noop fast path
# ======================================================================
class TestDisabledPath:
    def test_span_returns_shared_noop_singleton(self):
        assert not obs.is_enabled()
        sp = obs.span("anything", key="value")
        assert sp is obs_core.NOOP_SPAN
        assert obs.span("other") is sp
        with sp as inner:
            inner.set("k", 1)
            inner.set_attrs({"a": 2})
        assert inner.duration_ms == 0.0

    def test_metric_helpers_are_noops(self):
        obs.count("c", 5, label="x")
        obs.gauge("g", 1.0)
        obs.observe("h", 2.0)
        # Nothing was installed, nothing recorded.
        assert not obs.is_enabled()


# ======================================================================
# Metrics
# ======================================================================
class TestMetrics:
    def test_label_sets_are_separate_series(self):
        reg = obs.MetricsRegistry()
        reg.count("cache.hits", 2, cache="plans")
        reg.count("cache.hits", 3, cache="layouts")
        reg.count("cache.hits", 1, cache="plans")
        assert counter_value(reg, "cache.hits", cache="plans") == 3
        assert counter_value(reg, "cache.hits", cache="layouts") == 3
        # Family sum when no labels are given.
        assert counter_value(reg, "cache.hits") == 6
        assert counter_value(reg, "cache.hits", cache="absent") == 0

    def test_label_order_does_not_split_series(self):
        reg = obs.MetricsRegistry()
        reg.count("m", 1, a="1", b="2")
        reg.count("m", 1, b="2", a="1")
        assert counter_value(reg, "m", a="1", b="2") == 2
        (row,) = reg.snapshot()["counters"]
        assert row["labels"] == {"a": "1", "b": "2"}

    def test_prebuilt_series_key_feeds_the_same_series(self):
        key = obs_core.series_key("cache.hits", cache="plans")
        with obs.capture() as rec:
            obs.count("cache.hits", 2, cache="plans")
            rec.metrics.count_series(key)
            rec.metrics.count_series(key, 3)
        assert counter_value(rec.metrics, "cache.hits", cache="plans") == 6
        obs.count("cache.hits", cache="plans")  # disabled: a no-op
        assert counter_value(rec.metrics, "cache.hits", cache="plans") == 6

    def test_gauge_last_write_wins(self):
        reg = obs.MetricsRegistry()
        reg.gauge("size", 10, cache="plans")
        reg.gauge("size", 7, cache="plans")
        (row,) = reg.snapshot()["gauges"]
        assert row["value"] == 7

    def test_histogram_summary_and_buckets(self):
        reg = obs.MetricsRegistry()
        for v in (0.5, 1.0, 3.0, 5.0):
            reg.observe("lat_ms", v)
        (row,) = reg.snapshot()["histograms"]
        value = row["value"]
        assert value["count"] == 4
        assert value["min"] == 0.5 and value["max"] == 5.0
        assert value["mean"] == pytest.approx(9.5 / 4)
        # 0.5 and 1.0 in le_1; 3.0 in le_4; 5.0 in le_8.
        assert value["buckets"] == {"le_1": 2, "le_4": 1, "le_8": 1}

    def test_registry_concurrent_counts_are_exact(self):
        reg = obs.MetricsRegistry()
        n_threads, bumps = 8, 2000

        def worker():
            for _ in range(bumps):
                reg.count("hits", 1, cache="shared")

        threads = [
            threading.Thread(target=worker) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter_value(reg, "hits", cache="shared") == (
            n_threads * bumps
        )


# ======================================================================
# Exporters
# ======================================================================
def _small_capture() -> obs.Recorder:
    with obs.capture() as rec:
        with obs.span("compile:kernel", mode="linear") as sp:
            with obs.span("pass:lower-to-plans"):
                obs.count("cache.hits", 4, cache="plans")
                obs.observe("pipeline.pass_ms", 1.5, **{"pass": "lower"})
            sp.set("ok", True)
        obs.gauge("cache.size", 12, cache="plans")
    return rec


class TestExporters:
    def test_chrome_trace_is_valid_and_loadable_shape(self):
        rec = _small_capture()
        trace = obs.chrome_trace(rec)
        assert obs.validate_chrome_trace(trace) == []
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {
            "compile:kernel",
            "pass:lower-to-plans",
        }
        # category = prefix before ":", used for Perfetto filtering.
        assert {e["cat"] for e in xs} == {"compile", "pass"}
        assert any(e["ph"] == "M" for e in events)  # thread names
        assert any(e["ph"] == "C" for e in events)  # counter track
        # Span args carry the ids and attributes.
        kernel = next(e for e in xs if e["name"] == "compile:kernel")
        assert kernel["args"]["ok"] is True
        assert kernel["args"]["parent_id"] is None
        json.dumps(trace)

    def test_validate_rejects_malformed_traces(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({"traceEvents": "nope"}) != []
        assert "traceEvents is empty" in obs.validate_chrome_trace(
            {"traceEvents": []}
        )
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
                {"ph": "X", "name": "y", "pid": 1, "tid": 1, "ts": 0},
            ]
        }
        problems = obs.validate_chrome_trace(bad)
        assert any("bad phase" in p for p in problems)
        assert any("dur" in p for p in problems)

    def test_summarize_trace_mentions_spans_and_counters(self):
        rec = _small_capture()
        text = obs.summarize_trace(obs.chrome_trace(rec))
        assert text.startswith("spans: 2 (dropped 0)\n")
        assert "compile:kernel" in text
        assert "cache.hits{cache=plans} = 4" in text

    def test_cli_check_accepts_export_and_rejects_garbage(
        self, tmp_path, capsys
    ):
        from repro.obs.__main__ import main

        rec = _small_capture()
        good = str(tmp_path / "trace.json")
        obs.write_chrome_trace(rec, good)
        assert main(["check", good]) == 0
        assert main(["--check", good]) == 0  # CI spelling
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            json.dump({"traceEvents": []}, fh)
        assert main(["--check", bad]) == 1
        capsys.readouterr()

    def test_cli_summary_reads_the_exported_trace(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        rec = _small_capture()
        trace = str(tmp_path / "trace.json")
        obs.write_chrome_trace(rec, trace)
        assert main(["summary", trace]) == 0
        out = capsys.readouterr().out
        assert out == obs.summarize_trace(obs.chrome_trace(rec)) + "\n"
        assert "compile:kernel" in out
        assert "cache.hits" in out

    @pytest.mark.parametrize("command", ["check", "summary"])
    @pytest.mark.parametrize(
        "name, content",
        [
            ("notes.txt", "not a trace\n"),
            ("empty.json", ""),
            ("list.json", "[]\n"),
            ("cap.jsonl", '{"type": "span"}\n{"type": "metrics"}\n'),
        ],
    )
    def test_cli_fails_cleanly_on_non_traces(
        self, tmp_path, capsys, command, name, content
    ):
        from repro.obs.__main__ import main

        path = tmp_path / name
        path.write_text(content)
        assert main([command, str(path)]) == 1
        out = capsys.readouterr().out
        assert out == f"FAIL: {path} is not a Chrome trace JSON object\n"


# ======================================================================
# Instrumented subsystems
# ======================================================================
class TestInstrumentation:
    def test_compile_records_pipeline_hierarchy(self):
        cache.clear()
        req = CompileRequest("softmax", "r64c64")
        with obs.capture() as rec:
            req.build_and_compile()
        by_name = {}
        for sp in rec.spans():
            by_name.setdefault(sp.name, []).append(sp)
        for name in (
            "compile:kernel",
            "pipeline:run",
            "pass:anchor-selection",
            "pass:forward-propagation",
            "pass:backward-remat",
            "pass:lower-to-plans",
            "pass:cost-summary",
        ):
            assert name in by_name, f"missing span {name}"
        (kernel,) = by_name["compile:kernel"]
        (pipeline,) = by_name["pipeline:run"]
        assert pipeline.parent_id == kernel.span_id
        for name, spans in by_name.items():
            if name.startswith("pass:"):
                assert spans[0].parent_id == pipeline.span_id
        # Thin view: the pass span's attrs ARE the PassDiagnostics.
        lower = by_name["pass:lower-to-plans"][0]
        assert lower.attrs["name"] == "lower-to-plans"
        assert "wall_time_ms" in lower.attrs
        assert kernel.attrs["ok"] is True
        assert counter_value(rec.metrics, "engine.compiles") >= 1

    def test_pass_records_become_dicts_only_while_recording(
        self, monkeypatch
    ):
        """Recording off, a compile turns no pass record into a dict;
        recording on, every ``pass:<name>`` span carries its record."""
        from repro.engine.pipeline import PassDiagnostics

        calls = []
        real = PassDiagnostics.to_dict

        def counted(self):
            calls.append(self.name)
            return real(self)

        monkeypatch.setattr(PassDiagnostics, "to_dict", counted)
        req = CompileRequest("softmax", "r64c64")
        compiled = req.build_and_compile()
        assert compiled.ok and calls == []
        with obs.capture() as rec:
            compiled = req.build_and_compile()
        spans = [s for s in rec.spans() if s.name.startswith("pass:")]
        assert [s.name for s in spans] == [
            f"pass:{d.name}" for d in compiled.diagnostics
        ]
        for sp, diag in zip(spans, compiled.diagnostics):
            assert sp.attrs == {"mode": "linear", **real(diag)}

    def test_cache_counters_flow_into_metrics(self):
        cache.clear()
        req = CompileRequest("softmax", "r64c64")
        with obs.capture() as rec:
            req.build_and_compile()  # cold: misses
            req.build_and_compile()  # warm: hits
        hits = counter_value(rec.metrics, "cache.hits", cache="engine")
        misses = counter_value(rec.metrics,
            "cache.misses", cache="engine"
        )
        assert misses >= 1 and hits >= 1

    def test_cache_counters_count_exactly_the_capture_block(self, tmp_path):
        """Batched mirror: lookups before, after or inside a nested
        capture stay out of the outer capture's counters."""
        c = cache.BoundedCache("t_obs_block", maxsize=8, register=False)
        c.get_or_create("a", lambda: 1)
        c.get("a"), c.get("before")
        with obs.capture() as rec:
            c.get("a"), c.get("a"), c.get("b")
            with obs.capture() as inner:
                c.get("c")
            c.get("a")
        c.get("a"), c.get("after")
        obs.write_chrome_trace(rec, str(tmp_path / "trace.json"))

        def counts(r):
            return tuple(
                counter_value(r.metrics, name, cache="t_obs_block")
                for name in ("cache.hits", "cache.misses")
            )

        assert counts(rec) == (3, 1)
        assert counts(inner) == (0, 1)

    def test_enabled_recorder_exports_pending_cache_counts(self):
        c = cache.BoundedCache("t_obs_live", maxsize=8, register=False)
        with obs.capture() as rec:
            c.get("x"), c.get("x")
            metrics = obs.chrome_trace(rec)["otherData"]["metrics"]
            assert {
                "name": "cache.misses",
                "labels": {"cache": "t_obs_live"},
                "value": 2,
            } in metrics["counters"]
            c.get("y")
        c.get("z")
        assert counter_value(rec.metrics, "cache.misses", cache="t_obs_live") == 3

    def test_simulator_spans_and_metrics(self):
        rng = random.Random(7)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(rng, 9, shape=shape)
        dst = random_distributed_layout(rng, 9, shape=shape)
        plan = plan_conversion(src, dst, elem_bits=16, spec=RTX4090)
        machine = Machine(RTX4090, num_warps=4)
        registers = distributed_data(src, 4, 32)
        with obs.capture() as rec:
            machine.run_conversion(plan, registers)
        sims = [s for s in rec.spans() if s.name == "sim:run_program"]
        assert len(sims) == 1
        assert sims[0].attrs["platform"] == "RTX4090"
        assert sims[0].attrs["issued"] >= 1
        labels = {"platform": "RTX4090"}
        assert counter_value(rec.metrics, "sim.programs", **labels) == 1
        assert (
            counter_value(rec.metrics, "sim.instructions", **labels)
            == sims[0].attrs["issued"]
        )

    def test_serve_stress_capture_is_thread_safe(self):
        """8 submitters through the service while recording."""
        cache.clear()
        requests = [
            CompileRequest("softmax", "r64c64"),
            CompileRequest("vector_add", "n4096"),
            CompileRequest("dropout", "n4096"),
            CompileRequest("softmax", "r64c64", platform="MI250"),
        ]
        n_threads = 8
        errors = []
        with obs.capture() as rec:
            with CompileService(workers=4, name="obs-stress") as svc:
                barrier = threading.Barrier(n_threads)

                def hammer(seed):
                    rng = random.Random(seed)
                    suite = list(requests)
                    rng.shuffle(suite)
                    barrier.wait()
                    for req in suite:
                        res = svc.submit(req).result()
                        if res.error is not None:
                            errors.append(res.error)

                threads = [
                    threading.Thread(target=hammer, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
        assert errors == []
        serve_spans = [
            s for s in rec.spans() if s.name == "serve:request"
        ]
        assert len(serve_spans) == n_threads * len(requests)
        # Thin view: span attrs are the RequestStats record.
        for sp in serve_spans:
            assert sp.status == "ok"
            assert "queue_wait_ms" in sp.attrs
            assert sp.attrs["ok"] is True
        assert counter_value(rec.metrics, "serve.requests") == (
            n_threads * len(requests)
        )
        outcomes = {
            tuple(row["labels"].items())
            for row in rec.metrics.snapshot()["counters"]
            if row["name"] == "serve.requests"
        }
        assert any(
            ("outcome", "compiled") in key for key in outcomes
        )
        # Every span landed exactly once: ids are unique.
        ids = [s.span_id for s in rec.spans()]
        assert len(ids) == len(set(ids))


# ======================================================================
# Transparency: recording must not change results
# ======================================================================
class TestBitEquivalence:
    def test_compile_summary_identical_on_and_off(self):
        req = CompileRequest("welford", "r128c64")
        cache.clear()
        baseline = req.build_and_compile().summary()
        cache.clear()
        with obs.capture():
            recorded = req.build_and_compile().summary()
        assert recorded == baseline

    @pytest.mark.parametrize("seed", range(4))
    def test_random_conversions_identical_on_and_off(self, seed):
        rng = random.Random(seed)
        shape = {"dim0": 16, "dim1": 32}
        src = random_distributed_layout(rng, 9, shape=shape)
        dst = random_distributed_layout(rng, 9, shape=shape)
        machine = Machine(RTX4090, num_warps=4)
        registers = distributed_data(src, 4, 32)

        def run():
            plan = plan_conversion(
                src, dst, elem_bits=16, spec=RTX4090
            )
            converted, trace = machine.run_conversion(plan, registers)
            return (
                plan.program.instrs,
                as_dict(converted),
                trace.cycles(),
            )

        cache.clear()
        instrs_off, data_off, cycles_off = run()
        cache.clear()
        with obs.capture():
            instrs_on, data_on, cycles_on = run()
        assert instrs_on == instrs_off
        assert data_on == data_off
        assert cycles_on == cycles_off


# ======================================================================
# Satellite: one CostModel per GpuSpec
# ======================================================================
class TestCostModelReuse:
    def test_cost_model_memoized_per_spec(self):
        assert cost_model(RTX4090) is cost_model(RTX4090)

    def test_trace_reuses_the_shared_model(self):
        t1, t2 = Trace(RTX4090), Trace(RTX4090)
        assert t1.cost_model() is t2.cost_model()
        assert t1.cost_model() is cost_model(RTX4090)

    def test_cycles_unchanged_by_memoization(self):
        trace = Trace(RTX4090)
        trace.emit(InstructionKind.GLOBAL_LOAD, count=3)
        trace.emit(InstructionKind.SHUFFLE, count=2)
        fresh = CostModel(RTX4090)
        assert trace.cycles() == fresh.total_cycles(trace.instructions)
