"""``warm_stream``: Zipf-skewed request streams into a warm compile service.

Why: set-up compiles the whole suite once, so every conversion plan is
cached and the planner does ~nothing.  Time splits between the
engine's warm path (passes plus cache hits, paid on the first sighting
of each key in a pass) and the serve layer (result-cache hits,
single-flight, queueing); the caches see only hits (the read path).
Dead-cache removal and serve-backend changes show here.

Each pass creates a fresh :class:`repro.serve.CompileService` (thread
backend, one worker per CPU) and one closed-loop client sends it the
pass's stream one fixed-size batch at a time, waiting for the whole
batch before sending the next.  A stream holds every fig9 key once
plus Zipf-skewed repeats over a seeded ranking, in seeded order, so
the compile work is the same for every stream; each pass draws a new
one from the run's seed, so a run averages over several orders.  A
request's latency runs from its batch's submission to its future
resolving.  One client only: two closed-loop clients gave bimodal
medians on two CPUs.
"""

from __future__ import annotations

import functools
import os
import random
import threading
import time

from repro.obs import span
from repro.serve import CompileRequest, CompileService

from perfbench.suite import check_compiled, model_counts
from perfbench.telemetry import cache_delta, cache_snapshot, percentile
from perfbench.workloads.base import PassResult, warm_up

STREAM_LENGTH = 4096
BATCH = 64
ZIPF_S = 1.1


class WarmStream:
    name = "warm_stream"

    def __init__(self, seed: int, clock):
        self.rng = random.Random(seed)
        self.clock = clock

    def setup(self):
        """Warm the engine caches with one suite pass.

        Returns ``(scaled seconds, compiles, failures)``.
        """
        suite, golden, _, geomean, seconds, compiles, failures = warm_up(
            self.clock
        )
        self.suite, self.golden, self.geomean = suite, golden, geomean
        return seconds, compiles, failures

    def _stream(self):
        """The next seeded stream: every key once plus Zipf repeats."""
        ranked = self.rng.sample(self.suite, len(self.suite))
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
        stream = ranked + self.rng.choices(
            ranked, weights=weights, k=STREAM_LENGTH - len(ranked)
        )
        self.rng.shuffle(stream)
        return stream

    def run_pass(self, traced: bool) -> PassResult:
        stream = self._stream()
        requests = [
            CompileRequest(c.kernel, c.case, c.platform, c.mode)
            for c in stream
        ]
        service = CompileService(workers=os.cpu_count() or 1, backend="thread")
        before = cache_snapshot()
        latencies, failures, served = [], [], {}
        wall = raw = 0.0
        try:
            for first in range(0, len(requests), BATCH):
                self.clock.calibrate()
                with span("serve:batch"):
                    start, end, resolved, futures = self._batch(
                        service, requests[first:first + BATCH]
                    )
                speed = self.clock.speed(start, end)
                latencies += [(t - start) * 1e3 * speed for t in resolved]
                wall += (end - start) * speed
                raw += end - start
                for case, future in zip(stream[first:], futures):
                    self._check(case, future, failures, served)
        finally:
            service.close()
        self.clock.calibrate()
        counts = model_counts(served.items())
        counts["serve.unique_keys"] = len(served)
        # Not gated: when a request for a key arrives after the leader's
        # single-flight has forgotten the key but before the result
        # cache holds it, the service compiles the key again, so the
        # number of compiles can exceed the number of distinct keys by
        # a timing-dependent amount.  serve.compiles_per_unique_key
        # reports that wasted work.
        requests = service.report().requests
        return PassResult(
            wall, raw, latencies, failures, counts, cache_delta(before),
            extra={
                "compiles": sum(
                    not (r.shared or r.result_cached) for r in requests
                ),
                "queue_wait_ms": [r.queue_wait_ms for r in requests],
                "compile_ms": [r.compile_ms for r in requests],
                "overhead_ms": [r.total_ms - r.compile_ms for r in requests],
                "result_cache_hits": sum(r.result_cached for r in requests),
                "shared": sum(r.shared for r in requests),
            },
        )

    @staticmethod
    def _batch(service, requests):
        """Submit a batch and wait for all of it.

        Each future is stamped when it resolves, by a done-callback on
        the worker that resolved it, so the client thread (asleep until
        the whole batch is done) neither delays the stamps nor competes
        with the workers for the interpreter lock.
        """
        resolved = [0.0] * len(requests)
        left = [len(requests)]
        lock = threading.Lock()
        done = threading.Event()

        def stamp(index, _future):
            resolved[index] = time.perf_counter()
            with lock:
                left[0] -= 1
                if not left[0]:
                    done.set()

        start = time.perf_counter()
        futures = []
        for index, request in enumerate(requests):
            futures.append(service.submit(request))
            futures[-1].add_done_callback(functools.partial(stamp, index))
        done.wait()
        return start, max(resolved), resolved, futures

    def _check(self, case, future, failures, served) -> None:
        try:
            compiled = future.result()
        except Exception as exc:  # a raising request is a failure
            failures.append(f"{case}: {type(exc).__name__}: {exc}")
            return
        problem = check_compiled(case, compiled, self.golden)
        if problem is not None:
            failures.append(f"{case}: {problem}")
        served.setdefault(case, compiled)

    def layer_metrics(self, passes) -> dict:
        """``serve.*`` from the service reports, per pass."""

        def pooled(name):
            return [v for p in passes for v in p.extra[name]]

        def per_pass(name):
            return sum(p.extra[name] for p in passes) / len(passes)

        return {
            "serve.queue_wait_ms_p50": percentile(pooled("queue_wait_ms"), 50),
            "serve.overhead_ms": percentile(pooled("overhead_ms"), 50),
            "serve.compile_ms": sum(pooled("compile_ms")) / len(passes),
            "serve.compiles": per_pass("compiles"),
            "serve.result_cache_hits": per_pass("result_cache_hits"),
            "serve.shared": per_pass("shared"),
            "serve.compiles_per_unique_key": per_pass("compiles")
            / passes[0].counts["serve.unique_keys"],
        }
