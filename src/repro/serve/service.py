"""The concurrent compilation front-end.

:class:`CompileService` is the serving layer the ROADMAP's traffic
story needs: many `(kernel, case, platform, mode)` requests enter, a
worker pool compiles them, and two levels of deduplication keep the
work proportional to the number of *distinct* kernels rather than the
number of requests:

1. **Flights** — one bounded map from canonical request key to the
   key's *flight*: the executor future of its one compile, plus the
   result once it is done.  A done flight is the result cache:
   repeat traffic is answered at submission, on the caller's thread,
   with the flight's own future, without queueing behind compiles or
   touching the compiler.  A pending flight is shared: the request
   resolves when the flight does.  Only a request whose key has no
   flight compiles.
2. **Layout/plan caches** — distinct kernels that share layouts and
   conversions still split the F2 planning work through
   :mod:`repro.cache`, which is safe under the pool.

Results are bit-identical to serial :func:`repro.engine.compile`
(``tests/test_serve_stress.py`` proves it against cycles, op counts,
and serialized warp programs).  Workers are threads sharing the
process-wide caches, and every result is a live
:class:`~repro.engine.engine.CompiledKernel`.  On a GIL-bound CPython
a pure-Python compile does not parallelize, so cold throughput tracks
serial; what the pool buys is collapsing duplicate traffic onto one
compile per key.  There is no process pool: fork and pickling cost
more than the compiles it would parallelize (measurements in the doc
below).

See ``docs/SERVING.md`` for the full contract.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import cache as _cache
from repro.engine import compile as _engine_compile
from repro.engine.engine import CompiledKernel
from repro.gpusim.opcost import policy_for_mode
from repro.hardware.spec import PLATFORMS, check_num_warps
from repro.kernels import KERNELS
from repro.obs import core as _obs
from repro.serve.stats import RequestStats, ServiceReport

__all__ = ["CompileRequest", "CompileService"]

#: Flight-map capacity of every service: the keys whose result (or
#: in-flight compile) it keeps.
RESULT_CACHE_SIZE = 1024


class _Flight:
    """One key's compile: the executor future, then its result."""

    __slots__ = ("future", "result")

    def __init__(self):
        self.future: Optional[Future] = None
        self.result: Optional[CompiledKernel] = None


@dataclass(frozen=True)
class CompileRequest:
    """One compilation request, addressed through the kernel registry.

    Registry-addressed (name + case name) rather than carrying a
    graph: the engine takes ownership of the graph it compiles and
    rewires it in place, so every request must rebuild a fresh graph
    from the model's builder.
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

    def canonical_key(self, case: Optional[str] = None) -> str:
        """The dedup key: equal keys must compile bit-identically.
        ``case`` is the resolved case's name, when already known."""
        if case is None:
            case = self.resolved_case().name
        return (
            f"{self.kernel}/{case}@{self.platform}"
            f"/{self.mode}/w{self.num_warps}"
        )

    def validate(self) -> str:
        """Raise early (at submit, not on a worker) on a bad request;
        returns the resolved case's name."""
        if self.kernel not in KERNELS:
            raise KeyError(f"unknown kernel {self.kernel!r}")
        if self.platform not in PLATFORMS:
            raise KeyError(f"unknown platform {self.platform!r}")
        policy_for_mode(self.mode)
        check_num_warps(self.num_warps)
        return self.resolved_case().name  # raises on an unknown case

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


class CompileService:
    """A batch/concurrent compilation service over a thread pool.

    Parameters
    ----------
    workers:
        Pool size.  ``1`` is the serial baseline with identical
        semantics.
    backend:
        Must be ``"thread"``; any other value raises
        :class:`ValueError`.
    name:
        A label for the worker threads and the report.
    """

    def __init__(
        self,
        workers: int = 4,
        backend: str = "thread",
        name: str = "compile-service",
    ):
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        if backend != "thread":
            raise ValueError(f"backend must be thread: {backend!r}")
        self.name = name
        self.workers = workers
        # Canonical key -> flight, least recently used first; bounded
        # by RESULT_CACHE_SIZE and guarded by ``_lock``.
        self._flights: Dict[str, _Flight] = {}
        self._lock = threading.Lock()
        self._records: List[RequestStats] = []
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=f"{name}-worker"
        )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, request: Union[CompileRequest, Sequence]
    ) -> Future:
        """Enqueue one request; the future resolves to its
        :class:`CompiledKernel`.  Invalid requests raise here, at
        submission.

        One lookup in the flight map decides the request: no flight
        leads a compile on the pool, a done flight is answered here
        with the flight's own future, and a pending flight is shared.
        """
        if not isinstance(request, CompileRequest):
            request = CompileRequest(*request)
        case = request.validate()
        key = request.canonical_key(case)
        submitted = time.perf_counter()
        with self._lock:
            if self._first_submit is None:
                self._first_submit = submitted
            flight = self._flights.pop(key, None)
            if flight is None:
                # The flight is in the map before its compile can
                # finish or fail: both take this lock first.
                flight = _Flight()
                flight.future = self._executor.submit(
                    self._lead, request, case, key, submitted, flight
                )
                if len(self._flights) >= RESULT_CACHE_SIZE:
                    del self._flights[next(iter(self._flights))]
                self._flights[key] = flight
                return flight.future
            self._flights[key] = flight  # most recently used
        hit = flight.result
        if hit is not None:
            # A done flight is answered on the caller's thread: it
            # never queues behind compiles.  The answer is the flight's
            # own future once it has resolved; a hit that arrives
            # while the leader still writes its record gets a resolved
            # future of its own.
            self._serve(
                request, case, key, submitted, lambda rec: hit,
                result_cached=True,
            )
            if flight.future.done():
                return flight.future
            future: Future = Future()
            future.set_result(hit)
            return future
        future = Future()
        flight.future.add_done_callback(
            lambda done: self._follow(
                request, case, key, submitted, done, future
            )
        )
        return future

    def compile_batch(
        self, requests: Sequence[Union[CompileRequest, Sequence]]
    ) -> List[CompiledKernel]:
        """Compile many requests, results in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _lead(
        self,
        request: CompileRequest,
        case: str,
        key: str,
        submitted: float,
        flight: _Flight,
    ) -> CompiledKernel:
        """Compile the key on a worker; its record is written before
        the flight's future resolves.  A lead that raises (its compile
        or its record) drops the flight, so the next request for the
        key compiles again."""
        queue_wait_ms = (time.perf_counter() - submitted) * 1e3

        def compile_(rec: RequestStats) -> CompiledKernel:
            flight.result = self._compile_timed(request, rec)
            return flight.result

        try:
            return self._serve(
                request, case, key, submitted, compile_,
                queue_wait_ms=queue_wait_ms,
            )
        except BaseException:
            with self._lock:
                if self._flights.get(key) is flight:
                    del self._flights[key]
            raise

    def _follow(
        self,
        request: CompileRequest,
        case: str,
        key: str,
        submitted: float,
        flight_future: Future,
        future: Future,
    ) -> None:
        """Resolve a request that shared a flight, once it landed."""
        try:
            future.set_result(
                self._serve(
                    request, case, key, submitted,
                    lambda rec: flight_future.result(), shared=True,
                )
            )
        except BaseException as exc:
            future.set_exception(exc)

    def _serve(
        self,
        request: CompileRequest,
        case: str,
        key: str,
        submitted: float,
        produce: Callable[[RequestStats], CompiledKernel],
        **flags,
    ) -> CompiledKernel:
        """Serve one request through ``produce`` and record it: the
        record is written, and its span closed, before this returns."""
        rec = RequestStats(
            key=key,
            kernel=request.kernel,
            case=case,
            platform=request.platform,
            mode=request.mode,
            **flags,
        )
        with _obs.span(
            "serve:request",
            key=key,
            kernel=request.kernel,
            platform=request.platform,
            mode=request.mode,
        ) as sp:
            try:
                compiled = produce(rec)
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
                sp.adopt(rec)
                self._record(rec)

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
            _obs.count("serve.requests", 1, outcome=outcome, mode=rec.mode)
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

