"""The compilation front-end.

:class:`CompileService` is the serving layer the ROADMAP's traffic
story needs: many `(kernel, case, platform, mode)` requests enter, one
compile thread compiles them, and two levels of deduplication keep the
work proportional to the number of *distinct* kernels rather than the
number of requests:

1. **Flights** — one bounded map from canonical request key to the
   key's *flight*: the executor future of its one compile, plus the
   result once it is done.  A done flight is the result cache:
   repeat traffic is answered at submission, on the caller's thread,
   with the flight's own future, without queueing behind compiles or
   touching the compiler.  A pending flight is shared: the request
   resolves when the flight does.  Only a request whose key has no
   flight compiles.  A full map evicts only done flights, so a key
   never has two compiles at once.
2. **Layout/plan caches** — distinct kernels that share layouts and
   conversions still split the F2 planning work through
   :mod:`repro.cache`, which is safe across threads.

Each distinct request is validated and keyed once per service, so a
result-cache hit costs a lookup in that memo, one in the flight map
and its record.

Results are bit-identical to serial :func:`repro.engine.compile`
(``tests/test_serve_stress.py`` proves it against cycles, op counts,
and serialized warp programs), and every result is a live
:class:`~repro.engine.engine.CompiledKernel`.  Compiles run on one
thread: on a GIL-bound CPython a pure-Python compile does not
parallelize, and a second compile thread only adds interpreter-lock
hand-offs (on a 2-CPU host a warm 458-key batch ran ~60 % slower on
two).  There is no process pool: fork and pickling cost more than the
compiles it would parallelize (measurements in ``docs/SERVING.md``).

See ``docs/SERVING.md`` for the full contract.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro import cache as _cache
from repro.engine import compile as _engine_compile
from repro.engine.engine import CompiledKernel
from repro.gpusim.opcost import policy_for_mode
from repro.hardware.spec import PLATFORMS, check_num_warps
from repro.kernels import KERNELS
from repro.kernels.models import KernelCase
from repro.obs import core as _obs
from repro.serve.stats import RequestStats, ServiceReport, ServiceTotals

__all__ = ["CompileRequest", "CompileService"]

#: Flight-map capacity of every service: the keys whose result it
#: keeps (pending flights are never evicted).  The request memo has
#: the same bound.
RESULT_CACHE_SIZE = 1024

#: Records a service keeps for :meth:`CompileService.report`: the
#: newest, so memory stays bounded however long the service lives.  A
#: record that leaves is folded into running totals, so the report's
#: counts and latency aggregates still cover every request.  At least
#: one perfbench warm_stream pass (4,096 requests into a fresh service).
REQUEST_HISTORY = 4096


class _Flight:
    """One key's compile: the executor future, then its result, then
    whether that future has resolved (set by the first hit to see it)."""

    __slots__ = ("future", "result", "resolved")

    def __init__(self):
        self.future: Optional[Future] = None
        self.result: Optional[CompiledKernel] = None
        self.resolved = False


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

    def resolved_case(self) -> KernelCase:
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

    def validate(self) -> KernelCase:
        """Raise early (at submit, not on a worker) on a bad request;
        returns the resolved case."""
        if self.kernel not in KERNELS:
            raise KeyError(f"unknown kernel {self.kernel!r}")
        if self.platform not in PLATFORMS:
            raise KeyError(f"unknown platform {self.platform!r}")
        policy_for_mode(self.mode)
        check_num_warps(self.num_warps)
        return self.resolved_case()  # raises on an unknown case

    def build_and_compile(
        self, case: Optional[KernelCase] = None
    ) -> CompiledKernel:
        """Serial reference semantics: fresh graph, standard pipeline.
        ``case`` is the resolved case, when already known."""
        if case is None:
            case = self.resolved_case()
        kb = KERNELS[self.kernel].build(**case.kwargs())
        return _engine_compile(
            kb.graph,
            spec=PLATFORMS[self.platform],
            mode=self.mode,
            num_warps=self.num_warps,
        )


class CompileService:
    """A batch/concurrent compilation service over one compile thread.

    Parameters
    ----------
    workers:
        Must be positive, and sizes nothing: compiles run on one
        thread whatever it says, because on a GIL-bound CPython more
        compile threads only make the service slower.
    backend:
        Must be ``"thread"``; any other value raises
        :class:`ValueError`.
    name:
        A label for the compile thread and the report.
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
        # Canonical key -> flight, least recently used first; bounded
        # by RESULT_CACHE_SIZE (done flights only) and guarded by
        # ``_lock``.
        self._flights: Dict[str, _Flight] = {}
        # A validated request's fields -> (resolved case, its record's
        # identity fields), oldest first; bounded by RESULT_CACHE_SIZE,
        # written under ``_lock``.
        self._admitted: Dict[tuple, Tuple[KernelCase, tuple]] = {}
        self._lock = threading.Lock()
        # The newest REQUEST_HISTORY records, and the totals of those
        # that left; both guarded by ``_lock``.
        self._records: Deque[RequestStats] = deque(maxlen=REQUEST_HISTORY)
        self._dropped = ServiceTotals()
        self._first_submit: Optional[float] = None
        self._last_done: Optional[float] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{name}-compile"
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
        leads a compile on the compile thread, a done flight is
        answered here with the flight's own future, and a pending
        flight is shared.
        """
        if not isinstance(request, CompileRequest):
            request = CompileRequest(*request)
        case, ident = self._admit(request)
        key = ident[0]
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
                    self._lead, request, case, ident, submitted, flight
                )
                if len(self._flights) >= RESULT_CACHE_SIZE:
                    self._evict_a_done_flight()
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
            self._hit(
                RequestStats(
                    *ident, result_cached=True, ok=hit.ok, error=hit.error
                ),
                submitted,
            )
            if flight.resolved or flight.future.done():
                flight.resolved = True
                return flight.future
            future: Future = Future()
            future.set_result(hit)
            return future
        future = Future()
        flight.future.add_done_callback(
            lambda done: self._follow(
                RequestStats(*ident, shared=True), submitted, done, future
            )
        )
        return future

    def compile_batch(
        self, requests: Sequence[Union[CompileRequest, Sequence]]
    ) -> List[CompiledKernel]:
        """Compile many requests, results in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    def _admit(self, request: CompileRequest) -> Tuple[KernelCase, tuple]:
        """The request's resolved case and its record's identity fields
        (``key, kernel, case, platform, mode``: the canonical key
        first); raises on an invalid request.  Each distinct request is
        validated once.

        The memo is type-exact: it is keyed on the request's fields and
        the type of its warp count, because ``num_warps=4.0`` or
        ``True`` compares and hashes equal to a valid ``int`` count yet
        must fail validation.
        """
        fields = (
            request.kernel,
            request.case,
            request.platform,
            request.mode,
            request.num_warps,
            type(request.num_warps),
        )
        try:
            admitted = self._admitted.get(fields)
        except TypeError:  # an unhashable field: validate() names it
            admitted = None
        if admitted is None:
            case = request.validate()
            admitted = case, (
                request.canonical_key(case.name),
                request.kernel,
                case.name,
                request.platform,
                request.mode,
            )
            with self._lock:
                if len(self._admitted) >= RESULT_CACHE_SIZE:
                    del self._admitted[next(iter(self._admitted))]
                self._admitted[fields] = admitted
        return admitted

    def _evict_a_done_flight(self) -> None:
        """Drop the least recently used done flight, under ``_lock``.
        Pending flights stay, so while more keys compile than the map
        holds it grows past its bound instead of letting a later
        request start a second compile of an evicted key."""
        for key, flight in self._flights.items():
            if flight.result is not None:
                del self._flights[key]
                return

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _lead(
        self,
        request: CompileRequest,
        case: KernelCase,
        ident: tuple,
        submitted: float,
        flight: _Flight,
    ) -> CompiledKernel:
        """Compile the key on the compile thread; its record is written
        before the flight's future resolves.  A lead that raises (its
        compile or its record) drops the flight, so the next request
        for the key compiles again."""
        rec = RequestStats(
            *ident, queue_wait_ms=(time.perf_counter() - submitted) * 1e3
        )

        def compile_() -> CompiledKernel:
            flight.result = self._compile_timed(request, case, rec)
            return flight.result

        try:
            return self._serve(rec, submitted, compile_)
        except BaseException:
            with self._lock:
                if self._flights.get(rec.key) is flight:
                    del self._flights[rec.key]
            raise

    def _follow(
        self,
        rec: RequestStats,
        submitted: float,
        flight_future: Future,
        future: Future,
    ) -> None:
        """Resolve a request that shared a flight, once it landed."""
        try:
            future.set_result(
                self._serve(rec, submitted, flight_future.result)
            )
        except BaseException as exc:
            future.set_exception(exc)

    def _hit(self, rec: RequestStats, submitted: float) -> None:
        """Record a result-cache hit: no compile, nothing to wait on,
        and a span only while recording."""
        rec.total_ms = (time.perf_counter() - submitted) * 1e3
        if _obs.is_enabled():
            with _span(rec) as sp:
                sp.adopt(rec)
        self._record(rec)

    def _serve(
        self,
        rec: RequestStats,
        submitted: float,
        produce: Callable[[], CompiledKernel],
    ) -> CompiledKernel:
        """Serve one request through ``produce`` and record it: the
        record is written, and its span closed, before this returns."""
        with _span(rec) as sp:
            try:
                compiled = produce()
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
        self, request: CompileRequest, case: KernelCase, rec: RequestStats
    ) -> CompiledKernel:
        before = _cache.counters()
        start = time.perf_counter()
        compiled = request.build_and_compile(case)
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
            if len(self._records) == self._records.maxlen:
                self._dropped.add(self._records[0])
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
        """The service's statistics so far (see :mod:`repro.serve.stats`):
        totals over every request, and the newest
        :data:`REQUEST_HISTORY` records."""
        with self._lock:
            records = list(self._records)
            totals = dataclasses.replace(self._dropped)
            first = self._first_submit
            last = self._last_done
        for rec in records:
            totals.add(rec)
        wall_ms = (
            (last - first) * 1e3
            if first is not None and last is not None
            else 0.0
        )
        return ServiceReport(
            service=self.name, totals=totals, requests=records, wall_ms=wall_ms
        )

    def close(self) -> None:
        """Finish the queued compiles and release the compile thread."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _span(rec: RequestStats):
    """The request's ``serve:request`` span."""
    return _obs.span(
        "serve:request",
        key=rec.key,
        kernel=rec.kernel,
        platform=rec.platform,
        mode=rec.mode,
    )
