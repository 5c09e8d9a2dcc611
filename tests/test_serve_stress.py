"""Stress tests of the concurrent compile service.

The contract under test (``docs/SERVING.md``): hammering
:class:`repro.serve.CompileService` from many submitter threads with
overlapping kernel suites must produce results **bit-identical** to
serial :func:`repro.engine.compile` — same simulated cycles, same op
counts, same serialized warp programs — while the service's one flight
per key collapses duplicate work.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro import cache
from repro.serve import CompileRequest, CompileService

from tests.test_pipeline import GOLDEN

# A fast, varied slice of the fig9 suite: GEMM + attention-ish +
# reductions + pointwise, two platforms, both engine modes.
SUITE = [
    CompileRequest("softmax", "r64c64"),
    CompileRequest("softmax", "r64c64", platform="MI250"),
    CompileRequest("vector_add", "n4096"),
    CompileRequest("dropout", "n4096"),
    CompileRequest("sum", "r128c128"),
    CompileRequest("welford", "r128c64"),
    CompileRequest("welford", "r128c64", mode="legacy"),
    CompileRequest("gemm", "t32_i4"),
    CompileRequest("gemm", "t32_i4", mode="legacy"),
    CompileRequest("rms_norm", "r128c64", platform="GH200"),
]


@pytest.fixture(scope="module")
def serial_reference():
    """Serial compilation summaries, keyed by canonical request key."""
    cache.clear()
    return {
        req.canonical_key(): req.build_and_compile().summary()
        for req in SUITE
    }


class TestStress:
    def test_eight_threads_bit_identical_to_serial(
        self, serial_reference
    ):
        """8 submitter threads x overlapping shuffled suites."""
        cache.clear()
        n_threads = 8
        results: dict = {}
        errors: list = []
        with CompileService(workers=4, name="stress") as service:
            barrier = threading.Barrier(n_threads)

            def hammer(seed: int) -> None:
                rng = random.Random(seed)
                suite = list(SUITE)
                rng.shuffle(suite)
                barrier.wait()
                try:
                    futures = [
                        (r.canonical_key(), service.submit(r))
                        for r in suite
                    ]
                    out = [(k, f.result()) for k, f in futures]
                    results[seed] = out
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            report = service.report()

        assert not errors
        # Every result from every thread is bit-identical to serial:
        # cycles, op counts, and serialized warp programs all match.
        for seed, out in results.items():
            assert len(out) == len(SUITE)
            for key, compiled in out:
                assert compiled.summary() == serial_reference[key], (
                    f"thread {seed} diverged from serial on {key}"
                )
        # Dedup fired: 80 requests, only |SUITE| distinct compiles.
        assert report.total_requests == n_threads * len(SUITE)
        assert report.compiles == len(SUITE)
        assert report.dedup_shared + report.result_cache_hits == (
            report.total_requests - report.compiles
        )
        assert report.failures == 0

    def test_eight_raw_threads_compile_bit_identically(
        self, serial_reference
    ):
        """The compile path itself is thread-safe, without the service's
        one compile thread: 8 threads call ``build_and_compile`` on
        overlapping shuffled suites from cleared caches, switching the
        interpreter lock often."""
        cache.clear()
        n_threads = 8
        results: dict = {}
        errors: list = []
        barrier = threading.Barrier(n_threads)

        def compile_all(seed: int) -> None:
            rng = random.Random(seed)
            suite = list(SUITE)
            rng.shuffle(suite)
            barrier.wait()
            try:
                results[seed] = [
                    (r.canonical_key(), r.build_and_compile().summary())
                    for r in suite
                ]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=compile_all, args=(seed,))
            for seed in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == n_threads
        for seed, out in results.items():
            assert len(out) == len(SUITE)
            for key, summary in out:
                assert summary == serial_reference[key], (
                    f"thread {seed} diverged from serial on {key}"
                )

    def test_single_flight_shares_one_compile(self, monkeypatch):
        """Duplicate in-flight requests share the leader's compile."""
        cache.clear()
        real = CompileRequest.build_and_compile
        started = threading.Event()

        def slow_compile(self, case=None):
            started.set()
            time.sleep(0.05)  # hold the flight open for the followers
            return real(self, case)

        monkeypatch.setattr(
            CompileRequest, "build_and_compile", slow_compile
        )
        req = CompileRequest("softmax", "r64c64")
        with CompileService(workers=4, name="sf") as service:
            futures = [service.submit(req) for _ in range(8)]
            results = [f.result() for f in futures]
            report = service.report()
        # The duplicates submitted while the leader compiled shared
        # its flight; every result is equal bit-wise.
        assert report.dedup_shared >= 3
        first = results[0].summary()
        assert all(r.summary() == first for r in results)

    def test_no_recompile_between_flight_end_and_cache_fill(
        self, monkeypatch
    ):
        """One compile per key when a request arrives as a flight lands.

        Forced interleaving: request B submits after A's compile has
        returned but before A's future resolves — right after A's
        ``_compile_timed`` (A's result not yet on its flight, so B
        shares it) or right after A's ``_record`` (result on the
        flight, so B reads it).  B must never compile the key again.
        """
        real_compile = CompileRequest.build_and_compile
        calls: list = []

        def counted(self, case=None):
            calls.append(self.canonical_key())
            return real_compile(self, case)

        monkeypatch.setattr(CompileRequest, "build_and_compile", counted)
        req = CompileRequest("vector_add", "n4096")
        for hook, served_as in (
            ("_compile_timed", "shared"),
            ("_record", "result_cached"),
        ):
            cache.clear()
            calls.clear()
            b_futures: list = []
            with CompileService(workers=2, name="race") as service:
                real_hook = getattr(service, hook)
                armed = [True]

                def then_submit_b(*args):
                    out = real_hook(*args)
                    if armed[0]:
                        armed[0] = False
                        b_futures.append(service.submit(req))
                    return out

                setattr(service, hook, then_submit_b)
                a = service.submit(req).result(timeout=30)
                b = b_futures[0].result(timeout=30)
                report = service.report()
            assert calls == [req.canonical_key()], hook
            assert report.compiles == 1, hook
            lead, follow = report.requests
            assert not (lead.shared or lead.result_cached), hook
            assert getattr(follow, served_as), hook
            assert a is b, hook

    def test_golden_twice_over_matches_and_compiles_each_key_once(self):
        """Every pipeline-equivalence golden record, sent twice through
        one cold service: each result equals the serial golden, and
        the duplicate half is never recompiled."""
        requests = [
            CompileRequest(
                rec["kernel"], rec["case"], rec["platform"], rec["mode"]
            )
            for rec in GOLDEN
        ]
        traffic = requests * 2
        cache.clear()
        with CompileService(workers=4, name="golden") as service:
            results = service.compile_batch(traffic)
            report = service.report()
        for rec, compiled in zip(GOLDEN * 2, results):
            label = f"{rec['kernel']}@{rec['platform']}/{rec['mode']}"
            assert compiled.ok == rec["ok"], label
            if rec["ok"]:
                assert compiled.cycles() == rec["cycles"], label
                assert compiled.op_counts() == rec["op_counts"], label
        unique = len({r.canonical_key() for r in traffic})
        assert report.compiles == unique
        assert 1 - report.compiles / len(traffic) >= 0.5

    def test_concurrent_distinct_requests_all_succeed(self):
        """No cross-talk between distinct keys submitted together."""
        cache.clear()
        with CompileService(workers=8, name="distinct") as service:
            results = service.compile_batch(SUITE)
            report = service.report()
        assert len(results) == len(SUITE)
        assert report.compiles == len(SUITE)
        for req, compiled in zip(SUITE, results):
            assert compiled.mode == req.mode
            assert compiled.ok or compiled.error


class TestServiceSemantics:
    def test_results_in_request_order(self):
        reqs = [SUITE[3], SUITE[0], SUITE[1]]
        with CompileService(workers=2) as service:
            results = service.compile_batch(reqs)
        for req, compiled in zip(reqs, results):
            assert compiled.summary() == req.build_and_compile().summary()

    def test_invalid_requests_raise_at_submit(self):
        with CompileService(workers=1) as service:
            with pytest.raises(KeyError):
                service.submit(CompileRequest("no_such_kernel"))
            with pytest.raises(KeyError):
                service.submit(CompileRequest("gemm", "no_such_case"))
            with pytest.raises(KeyError):
                service.submit(CompileRequest("gemm", ["t32_i4"]))
            with pytest.raises(KeyError):
                service.submit(CompileRequest("gemm", platform="TPU"))
            with pytest.raises(ValueError):
                service.submit(CompileRequest("gemm", mode="quantum"))

    @pytest.mark.parametrize("num_warps", [0, 3, -4, True, 4.0])
    def test_bad_num_warps_raise_at_submit(self, num_warps):
        with CompileService(workers=1) as service:
            with pytest.raises(ValueError, match="num_warps"):
                service.submit(CompileRequest("gemm", num_warps=num_warps))

    @pytest.mark.parametrize("num_warps", [4.0, True])
    def test_request_memo_is_type_exact(self, num_warps):
        """A served request's memo entry never admits an equal request
        of another type: ``4.0`` and ``True`` compare and hash equal to
        the valid counts 4 and 1, yet still raise at submit."""
        served = [CompileRequest("gemm"), CompileRequest("gemm", num_warps=1)]
        bad = CompileRequest("gemm", num_warps=num_warps)
        assert bad in served and hash(bad) in {hash(r) for r in served}
        with CompileService(workers=1, name="memo") as service:
            for request in served:
                service.submit(request).result()
            with pytest.raises(ValueError, match="num_warps"):
                service.submit(bad)
            report = service.report()
        assert report.total_requests == len(served)

    def test_one_compile_thread_whatever_workers_says(self, monkeypatch):
        """A batch of distinct keys through ``workers=4`` compiles one
        key at a time, all on one thread that is not the caller's."""
        real = CompileRequest.build_and_compile
        lock = threading.Lock()
        active = [0]
        peak = [0]
        idents: set = set()

        def tracked(self, case=None):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                idents.add(threading.get_ident())
            try:
                time.sleep(0.002)  # widen the window for an overlap
                return real(self, case)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(CompileRequest, "build_and_compile", tracked)
        cache.clear()
        with CompileService(workers=4, name="one-thread") as service:
            service.compile_batch(SUITE)
            report = service.report()
        assert report.compiles == len(SUITE)
        assert peak[0] == 1
        assert len(idents) == 1
        assert threading.get_ident() not in idents

    def test_result_cache_serves_repeat_batches(self):
        cache.clear()
        with CompileService(workers=2, name="repeat") as service:
            first = service.compile_batch(SUITE[:4])
            second = service.compile_batch(SUITE[:4])
            report = service.report()
        # The second batch is served entirely without recompiling,
        # and shares the exact result objects.
        assert report.compiles == 4
        assert report.result_cache_hits >= 4
        for a, b in zip(first, second):
            assert a is b

    def test_repeat_submit_is_answered_at_submit(self):
        """A result-cache hit resolves on the caller's thread."""
        cache.clear()
        req = SUITE[2]
        with CompileService(workers=1, name="hit") as service:
            first = service.submit(req).result()
            repeat = service.submit(req)
            assert repeat.done()
            assert repeat.result() is first
            report = service.report()
        miss, hit = report.requests
        assert not miss.result_cached
        assert hit.result_cached and hit.ok
        assert hit.queue_wait_ms == 0
        assert hit.compile_ms == 0
        assert report.compiles == 1

    def test_repeated_hits_return_the_flights_future(self):
        """Every hit of a key returns its flight's own future, not a
        new one per hit, and so the one kernel."""
        cache.clear()
        req = SUITE[2]
        with CompileService(workers=1, name="hit-future") as service:
            lead = service.submit(req)
            first = lead.result()
            hits = [service.submit(req) for _ in range(3)]
            report = service.report()
        assert all(hit is lead for hit in hits)
        assert all(hit.result() is first for hit in hits)
        assert [r.result_cached for r in report.requests] == [
            False, True, True, True,
        ]
        assert report.compiles == 1

    def test_submit_hit_records_a_request_span(self):
        from repro import obs

        cache.clear()
        req = SUITE[2]
        with CompileService(workers=1, name="hit-span") as service:
            service.submit(req).result()
            with obs.capture() as rec:
                assert service.submit(req).done()
        (sp,) = [s for s in rec.spans() if s.name == "serve:request"]
        assert sp.attrs["key"] == req.canonical_key()
        assert sp.attrs["result_cached"] is True
        assert sp.attrs["queue_wait_ms"] == 0
        assert [s.name for s in rec.spans()] == ["serve:request"]

    def test_cached_failed_compile_keeps_its_error(self, monkeypatch):
        """A cached not-ok result is served with its ok flag and error."""
        from repro.engine.engine import CompiledKernel
        from repro.gpusim import Trace
        from repro.hardware.spec import PLATFORMS

        def unsupported(self, case=None):
            return CompiledKernel(
                graph=None,
                trace=Trace(PLATFORMS[self.platform]),
                mode=self.mode,
                error="LegacyUnsupportedError: synthetic",
            )

        monkeypatch.setattr(CompileRequest, "build_and_compile", unsupported)
        req = CompileRequest("gemm", "t32_i4", mode="legacy")
        with CompileService(workers=1, name="hit-error") as service:
            first = service.submit(req).result()
            repeat = service.submit(req)
            assert repeat.done() and repeat.result() is first
            report = service.report()
        assert [r.result_cached for r in report.requests] == [False, True]
        for rec in report.requests:
            assert rec.ok is False
            assert rec.error == "LegacyUnsupportedError: synthetic"
        assert report.failures == 2

    def test_report_is_json_exportable(self):
        import json

        with CompileService(workers=2, name="json") as service:
            service.compile_batch(SUITE[:3])
            report = service.report()
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["service"] == "json"
        assert "workers" not in doc
        assert doc["requests"] == 3
        assert len(doc["per_request"]) == 3
        for rec in doc["per_request"]:
            assert rec["queue_wait_ms"] >= 0
            assert rec["total_ms"] >= rec["compile_ms"]
        assert set(doc["cache"]) >= {"layouts", "plans", "engine"}
        assert report.describe()

    def test_only_the_thread_backend_is_accepted(self):
        for backend in ("process", "fork"):
            with pytest.raises(ValueError, match="backend"):
                CompileService(workers=1, backend=backend)
        with CompileService(workers=1, backend="thread") as service:
            assert service.compile_batch([SUITE[2]])[0].ok


def _held_compile(monkeypatch, fail=False):
    """Patch every compile to wait for ``release`` (and then raise if
    ``fail``); returns ``(entered, release, calls)``."""
    real = CompileRequest.build_and_compile
    entered = threading.Event()
    release = threading.Event()
    calls: list = []

    def held(self, case=None):
        calls.append(self.canonical_key())
        entered.set()
        assert release.wait(10)
        if fail:
            raise RuntimeError("leader failed")
        return real(self, case)

    monkeypatch.setattr(CompileRequest, "build_and_compile", held)
    return entered, release, calls


class TestFlights:
    """One flight per key: lead, share, or read the result."""

    def test_leader_and_followers_share_one_compile(self, monkeypatch):
        cache.clear()
        entered, release, calls = _held_compile(monkeypatch)
        req = SUITE[2]
        with CompileService(workers=4, name="flight") as service:
            leader = service.submit(req)
            assert entered.wait(10)
            followers = [service.submit(req) for _ in range(3)]
            assert not any(f.done() for f in [leader, *followers])
            release.set()
            results = [f.result(timeout=30) for f in [leader, *followers]]
            report = service.report()
        assert calls == [req.canonical_key()]
        assert report.compiles == 1
        assert sorted(r.shared for r in report.requests) == [
            False, True, True, True,
        ]
        assert not any(r.result_cached for r in report.requests)
        assert all(r is results[0] for r in results)
        assert results[0].summary() == req.build_and_compile().summary()

    @pytest.mark.parametrize("fail", [False, True])
    def test_hit_while_the_leader_records_is_done_at_submit(
        self, monkeypatch, fail
    ):
        """A hit that arrives after the leader compiled, while it still
        writes its record, resolves at submit to the kernel, with a
        future of its own: the flight's has not resolved yet.  A leader
        whose record raises fails its own future only and drops the
        flight, so the next request compiles again."""
        cache.clear()
        req = SUITE[2]
        with CompileService(workers=1, name="held-record") as service:
            real = service._record
            held, release = threading.Event(), threading.Event()

            def record(rec):
                if not (rec.result_cached or held.is_set()):  # the leader
                    held.set()
                    assert release.wait(10)
                    if fail:
                        raise RuntimeError("record failed")
                real(rec)

            monkeypatch.setattr(service, "_record", record)
            leader = service.submit(req)
            assert held.wait(30)
            hit = service.submit(req)
            assert hit is not leader
            assert hit.done() and not leader.done()
            kernel = hit.result()
            release.set()
            if fail:
                with pytest.raises(RuntimeError, match="record failed"):
                    leader.result(timeout=30)
                again = service.submit(req)
                assert again is not leader
                assert again.result(timeout=30).summary() == kernel.summary()
            else:
                assert leader.result(timeout=30) is kernel
                assert service.submit(req) is leader
            report = service.report()
        kinds = [(r.shared, r.result_cached) for r in report.requests]
        if fail:  # the failed lead wrote no record
            assert kinds == [(False, True), (False, False)]
        else:
            assert kinds == [(False, True), (False, False), (False, True)]
        assert all(r.ok for r in report.requests)

    def test_raising_flight_fails_followers_and_is_dropped(
        self, monkeypatch
    ):
        cache.clear()
        entered, release, calls = _held_compile(monkeypatch, fail=True)
        req = SUITE[2]
        with CompileService(workers=2, name="flight-error") as service:
            futures = [service.submit(req)]
            assert entered.wait(10)
            futures += [service.submit(req) for _ in range(2)]
            release.set()
            errors = []
            for future in futures:
                with pytest.raises(RuntimeError, match="leader failed") as exc:
                    future.result(timeout=30)
                errors.append(exc.value)
            assert all(e is errors[0] for e in errors)
            # The failed flight is gone: the next request compiles again.
            monkeypatch.undo()
            again = service.submit(req).result(timeout=30)
            report = service.report()
        assert calls == [req.canonical_key()]
        assert again.ok
        assert [r.shared for r in report.requests] == [
            False, True, True, False,
        ]
        assert [r.ok for r in report.requests] == [False] * 3 + [True]
        assert report.compiles == 2
        assert report.failures == 3

    def test_a_full_flight_map_never_evicts_a_pending_flight(
        self, monkeypatch
    ):
        """More keys pending than the map holds: the first key's flight
        is not evicted, so its repeat shares the one compile instead of
        leading a second."""
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "RESULT_CACHE_SIZE", 2)
        cache.clear()
        entered, release, calls = _held_compile(monkeypatch)
        first, others = SUITE[2], [SUITE[3], SUITE[0]]
        with CompileService(workers=1, name="full-map") as service:
            futures = [service.submit(first)]
            assert entered.wait(10)
            futures += [service.submit(r) for r in others]
            futures.append(service.submit(first))
            release.set()
            results = [f.result(timeout=30) for f in futures]
            report = service.report()
        assert calls.count(first.canonical_key()) == 1
        assert report.compiles == 3
        assert [r.key for r in report.requests if r.shared] == [
            first.canonical_key()
        ]
        assert results[-1] is results[0]

    def test_every_record_exists_before_its_future_resolves(
        self, monkeypatch
    ):
        """Each request's record is written before its future resolves,
        so ``report()`` right after a batch holds every request."""
        real = CompileRequest.build_and_compile

        def slow_compile(self, case=None):
            time.sleep(0.005)  # let duplicates find the pending flight
            return real(self, case)

        monkeypatch.setattr(CompileRequest, "build_and_compile", slow_compile)
        batch = [SUITE[2], SUITE[3]] * 4
        shared = 0
        for round_ in range(5):
            cache.clear()
            with CompileService(workers=2, name=f"records-{round_}") as service:
                lock = threading.Lock()
                resolved = [0]
                early: list = []

                def check(_future):
                    # Every resolved future's record must already exist.
                    with lock:
                        resolved[0] += 1
                        if len(service.report().requests) < resolved[0]:
                            early.append(resolved[0])

                futures = [service.submit(r) for r in batch]
                for future in futures:
                    future.add_done_callback(check)
                for future in futures:
                    future.result(timeout=30)
                report = service.report()
                assert len(report.requests) == len(batch)
                assert not early
                shared += report.dedup_shared
                assert report.compiles == 2
        assert shared > 0
