"""The concurrent compilation front-end.

:class:`CompileService` is the serving layer the ROADMAP's traffic
story needs: many `(kernel, case, platform, mode)` requests enter, a
worker pool compiles them, and three levels of deduplication keep the
work proportional to the number of *distinct* kernels rather than the
number of requests:

1. **Result cache** — a completed compilation is memoized by its
   canonical request key, so repeat traffic is served without
   touching the compiler at all.
2. **Single-flight** — concurrent requests for the same key share one
   in-flight compile (:mod:`repro.serve.singleflight`); only the
   leader runs the pipeline.
3. **Layout/plan caches** — distinct kernels that share layouts and
   conversions still split the F2 planning work through
   :mod:`repro.cache`, which this PR made safe under the pool.

Results are bit-identical to serial :func:`repro.engine.compile`
(``tests/test_serve_stress.py`` proves it against cycles, op counts,
and serialized warp programs).  Two backends:

``thread``
    Workers are threads sharing the process-wide caches.  Returns
    full :class:`~repro.engine.engine.CompiledKernel` objects.  On a
    free-threaded or I/O-bound deployment this scales with cores; on
    a GIL-bound CPython it degrades gracefully to serial throughput
    while still providing single-flight collapsing of duplicate
    traffic.
``process``
    Workers are forked processes (true parallelism on multicore
    hosts).  Requests must be registry-addressed (picklable), and
    results come back as :meth:`CompiledKernel.summary` digests
    rather than live objects.

See ``docs/SERVING.md`` for the full contract.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro import cache as _cache
from repro.engine import compile as _engine_compile
from repro.engine.engine import CompiledKernel
from repro.hardware.spec import PLATFORMS
from repro.kernels import KERNELS
from repro.obs import core as _obs
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import RequestStats, ServiceReport

__all__ = ["CompileRequest", "CompileService", "compile_suite"]


@dataclass(frozen=True)
class CompileRequest:
    """One compilation request, addressed through the kernel registry.

    Registry-addressed (name + case name) rather than carrying a
    graph: the engine takes ownership of the graph it compiles and
    rewires it in place, so every request must rebuild a fresh graph
    from the model's builder — and names keep the request picklable
    for the process backend.
    """

    kernel: str
    case: Optional[str] = None  # None selects the model's first case
    platform: str = "RTX4090"
    mode: str = "linear"
    num_warps: int = 4

    def resolved_case(self):
        """The model's :class:`KernelCase` this request names."""
        model = KERNELS[self.kernel]
        if self.case is None:
            return model.cases[0]
        for case in model.cases:
            if case.name == self.case:
                return case
        raise KeyError(
            f"kernel {self.kernel!r} has no case {self.case!r} "
            f"(have {[c.name for c in model.cases]})"
        )

    def canonical_key(self) -> str:
        """The dedup key: equal keys must compile bit-identically."""
        case = self.resolved_case()
        return (
            f"{self.kernel}/{case.name}@{self.platform}"
            f"/{self.mode}/w{self.num_warps}"
        )

    def validate(self) -> "CompileRequest":
        """Raise early (at submit, not on a worker) on a bad request."""
        if self.kernel not in KERNELS:
            raise KeyError(f"unknown kernel {self.kernel!r}")
        if self.platform not in PLATFORMS:
            raise KeyError(f"unknown platform {self.platform!r}")
        if self.mode not in ("linear", "legacy"):
            raise ValueError(
                f"mode must be linear or legacy: {self.mode!r}"
            )
        self.resolved_case()  # raises on an unknown case name
        return self

    def build_and_compile(self) -> CompiledKernel:
        """Serial reference semantics: fresh graph, standard pipeline."""
        model = KERNELS[self.kernel]
        case = self.resolved_case()
        kb = model.build(**case.kwargs())
        return _engine_compile(
            kb.graph,
            spec=PLATFORMS[self.platform],
            mode=self.mode,
            num_warps=self.num_warps,
        )


def _process_worker(payload) -> Dict[str, object]:
    """Process-backend entry point: compile and return a digest.

    Module-level so it pickles; reconstructs the request in the child
    and returns ``CompiledKernel.summary()`` plus the child-side
    compile time.
    """
    request = CompileRequest(*payload)
    start = time.perf_counter()
    compiled = request.build_and_compile()
    summary = compiled.summary()
    summary["compile_ms"] = (time.perf_counter() - start) * 1e3
    return summary


class CompileService:
    """A batch/concurrent compilation service over a worker pool.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` is the serial baseline with identical
        semantics.
    backend:
        ``"thread"`` (default; returns :class:`CompiledKernel`) or
        ``"process"`` (returns :meth:`CompiledKernel.summary` dicts;
        true multicore parallelism).
    dedup:
        Enable single-flight sharing of concurrent equal-keyed
        requests.
    result_cache:
        Completed-result memo capacity (0 disables; every request
        then recompiles unless an equal request is concurrently in
        flight).
    """

    def __init__(
        self,
        workers: int = 4,
        backend: str = "thread",
        dedup: bool = True,
        result_cache: int = 1024,
        name: str = "compile-service",
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be thread or process: {backend!r}"
            )
        self.name = name
        self.workers = workers
        self.backend = backend
        self.dedup = dedup
        self._flight = SingleFlight()
        self._results: Optional[_cache.BoundedCache] = (
            _cache.BoundedCache(
                f"{name}:results", maxsize=result_cache, register=False
            )
            if result_cache
            else None
        )
        self._lock = threading.Lock()
        self._records: List[RequestStats] = []
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None
        self._process_futures: Dict[str, Future] = {}
        if backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix=f"{name}-worker",
            )
        else:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            ctx = mp.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, request: Union[CompileRequest, Sequence]
    ) -> Future:
        """Enqueue one request; the future resolves to its result.

        Thread backend futures resolve to :class:`CompiledKernel`;
        process backend futures resolve to summary dicts.  Invalid
        requests raise here, at submission.
        """
        if not isinstance(request, CompileRequest):
            request = CompileRequest(*request)
        request.validate()
        submitted = time.perf_counter()
        with self._lock:
            if self._first_submit is None:
                self._first_submit = submitted
        if self.backend == "process":
            return self._submit_process(request, submitted)
        return self._executor.submit(self._serve, request, submitted)

    def compile_batch(
        self, requests: Sequence[Union[CompileRequest, Sequence]]
    ) -> List:
        """Compile many requests, results in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Thread backend
    # ------------------------------------------------------------------
    def _serve(
        self, request: CompileRequest, submitted: float
    ) -> CompiledKernel:
        started = time.perf_counter()
        key = request.canonical_key()
        case = request.resolved_case()
        rec = RequestStats(
            key=key,
            kernel=request.kernel,
            case=case.name,
            platform=request.platform,
            mode=request.mode,
            queue_wait_ms=(started - submitted) * 1e3,
        )
        with _obs.span(
            "serve:request",
            key=key,
            kernel=request.kernel,
            platform=request.platform,
            mode=request.mode,
        ) as sp:
            try:
                compiled = self._lookup_or_compile(request, key, rec)
                rec.ok = compiled.ok
                rec.error = compiled.error
                return compiled
            except BaseException as exc:
                rec.ok = False
                rec.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                rec.total_ms = (time.perf_counter() - submitted) * 1e3
                # Thin-view contract: the span's attributes are the
                # request's RequestStats record.
                sp.set_attrs(rec.to_dict())
                self._record(rec)

    def _lookup_or_compile(
        self, request: CompileRequest, key: str, rec: RequestStats
    ) -> CompiledKernel:
        hit = self._cached(key, rec)
        if hit is not None:
            return hit
        if not self.dedup:
            return self._lead(request, key, rec)
        with _obs.span("serve:singleflight", key=key) as sp:
            compiled, shared = self._flight.do(
                key, lambda: self._lead(request, key, rec)
            )
            sp.set("shared", shared)
        rec.shared = shared
        return compiled

    def _cached(
        self, key: str, rec: RequestStats
    ) -> Optional[CompiledKernel]:
        """The result cache's entry for ``key``, if any, noted on ``rec``."""
        if self._results is None:
            return None
        hit = self._results.get(key, None)
        if hit is not None:
            rec.result_cached = True
        return hit

    def _lead(
        self, request: CompileRequest, key: str, rec: RequestStats
    ) -> CompiledKernel:
        """A single-flight leader's work: compile at most once per key.

        The result reaches the result cache inside the flight, before
        single-flight forgets the key, and a new leader re-checks the
        cache first.  A request that missed the cache while an earlier
        flight was finishing then finds that flight's result instead
        of compiling the key again.
        """
        hit = self._cached(key, rec)
        if hit is not None:
            return hit
        compiled = self._compile_timed(request, rec)
        if self._results is not None:
            compiled = self._results.put(key, compiled)
        return compiled

    def _compile_timed(
        self, request: CompileRequest, rec: RequestStats
    ) -> CompiledKernel:
        before = _cache.counters()
        start = time.perf_counter()
        compiled = request.build_and_compile()
        rec.compile_ms = (time.perf_counter() - start) * 1e3
        delta = _cache.counters_delta(before)
        rec.cache_hits = delta["hits"]
        rec.cache_misses = delta["misses"]
        return compiled

    # ------------------------------------------------------------------
    # Process backend
    # ------------------------------------------------------------------
    def _submit_process(
        self, request: CompileRequest, submitted: float
    ) -> Future:
        key = request.canonical_key()
        case = request.resolved_case()
        rec = RequestStats(
            key=key,
            kernel=request.kernel,
            case=case.name,
            platform=request.platform,
            mode=request.mode,
        )
        with self._lock:
            hit = (
                self._results.get(key, None)
                if self._results is not None
                else None
            )
            shared_future = (
                self._process_futures.get(key) if self.dedup else None
            )
        if hit is not None:
            rec.result_cached = True
            done: Future = Future()
            done.set_result(hit)
            self._finish_process_record(rec, submitted)
            return done
        if shared_future is not None:
            rec.shared = True
            self._finish_process_record(rec, submitted)
            return shared_future
        payload = (
            request.kernel,
            request.case,
            request.platform,
            request.mode,
            request.num_warps,
        )
        future = self._executor.submit(_process_worker, payload)
        with self._lock:
            if self.dedup:
                self._process_futures[key] = future
        future.add_done_callback(
            lambda f: self._process_done(key, rec, submitted, f)
        )
        return future

    def _process_done(
        self, key: str, rec: RequestStats, submitted: float, future: Future
    ) -> None:
        error = future.exception()
        if error is not None:
            rec.ok = False
            rec.error = f"{type(error).__name__}: {error}"
        else:
            summary = future.result()
            rec.ok = bool(summary.get("ok", True))
            rec.error = summary.get("error")
            rec.compile_ms = float(summary.get("compile_ms", 0.0))
            if self._results is not None:
                self._results.put(key, summary)
        with self._lock:
            self._process_futures.pop(key, None)
        self._finish_process_record(rec, submitted)

    def _finish_process_record(
        self, rec: RequestStats, submitted: float
    ) -> None:
        rec.total_ms = (time.perf_counter() - submitted) * 1e3
        self._record(rec)

    # ------------------------------------------------------------------
    # Reporting / lifecycle
    # ------------------------------------------------------------------
    def _record(self, rec: RequestStats) -> None:
        with self._lock:
            self._records.append(rec)
            self._last_done = time.perf_counter()
        if _obs.is_enabled():
            if not rec.ok:
                outcome = "error"
            elif rec.result_cached:
                outcome = "result_cached"
            elif rec.shared:
                outcome = "shared"
            else:
                outcome = "compiled"
            _obs.count(
                "serve.requests", 1,
                outcome=outcome, mode=rec.mode, backend=self.backend,
            )
            _obs.observe("serve.queue_wait_ms", rec.queue_wait_ms)
            if outcome == "compiled":
                _obs.observe("serve.compile_ms", rec.compile_ms)

    def report(self) -> ServiceReport:
        """The service's statistics so far (see :mod:`repro.serve.stats`)."""
        with self._lock:
            records = list(self._records)
            first = self._first_submit
            last = self._last_done
        wall_ms = (
            (last - first) * 1e3
            if first is not None and last is not None
            else 0.0
        )
        return ServiceReport(
            service=self.name,
            workers=self.workers,
            backend=self.backend,
            requests=records,
            wall_ms=wall_ms,
        )

    def close(self) -> None:
        """Drain the pool and release its workers."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def compile_suite(
    requests: Sequence[Union[CompileRequest, Sequence]],
    workers: int = 4,
    backend: str = "thread",
    **service_kwargs,
):
    """One-shot batch compile: ``(results, report)`` for a suite."""
    with CompileService(
        workers=workers, backend=backend, **service_kwargs
    ) as service:
        results = service.compile_batch(requests)
        report = service.report()
    return results, report
