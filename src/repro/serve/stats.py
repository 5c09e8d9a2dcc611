"""Per-request and per-service statistics of the compile service.

Every request the :class:`~repro.serve.service.CompileService`
processes leaves one :class:`RequestStats` record: where its latency
went (queue wait vs. compile time), how the caches behaved for it
(thread-local hit/miss deltas from :func:`repro.cache.counters`), and
whether it was deduplicated (served by another request's in-flight
compile or by a finished one's result).  :class:`ServiceReport`
aggregates those records into the JSON document operators would
scrape — throughput, dedup ratios, latency summary, and the global
cache statistics snapshot.

These records are also the observability layer's view of the
service: when :mod:`repro.obs` is recording, every request's
``serve:request`` span carries :meth:`RequestStats.to_dict` as its
attributes and the service bumps ``serve.requests{outcome=...}`` /
``serve.queue_wait_ms`` / ``serve.compile_ms`` series — one record,
two surfaces (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro import cache as _cache

__all__ = ["RequestStats", "ServiceReport"]


@dataclass
class RequestStats:
    """One serviced request: identity, latency split, dedup, caches."""

    key: str
    kernel: str
    case: str
    platform: str
    mode: str
    #: Time spent queued before a worker picked the request up (zero
    #: unless the request compiled).
    queue_wait_ms: float = 0.0
    #: Wall time of the compile itself (zero when deduplicated).
    compile_ms: float = 0.0
    #: Submit-to-result wall time.
    total_ms: float = 0.0
    #: Served by another request's in-flight compile.
    shared: bool = False
    #: Served from a finished compile's result, at submission.
    result_cached: bool = False
    #: repro.cache hits/misses attributed to this request's compile.
    cache_hits: int = 0
    cache_misses: int = 0
    ok: bool = True
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly record."""
        return {
            "key": self.key,
            "kernel": self.kernel,
            "case": self.case,
            "platform": self.platform,
            "mode": self.mode,
            "queue_wait_ms": round(self.queue_wait_ms, 4),
            "compile_ms": round(self.compile_ms, 4),
            "total_ms": round(self.total_ms, 4),
            "shared": self.shared,
            "result_cached": self.result_cached,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "ok": self.ok,
            "error": self.error,
        }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass
class ServiceReport:
    """The service-level rollup of one service's lifetime (so far)."""

    service: str
    requests: List[RequestStats] = field(default_factory=list)
    #: Wall time covered by the report (first submit to last result).
    wall_ms: float = 0.0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        return len(self.requests)

    @property
    def compiles(self) -> int:
        """Requests that actually ran the compiler."""
        return sum(
            1
            for r in self.requests
            if not r.shared and not r.result_cached
        )

    @property
    def dedup_shared(self) -> int:
        """Requests served by a concurrent request's compile."""
        return sum(1 for r in self.requests if r.shared)

    @property
    def result_cache_hits(self) -> int:
        """Requests served from the completed-result cache."""
        return sum(1 for r in self.requests if r.result_cached)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.requests if not r.ok)

    @property
    def throughput_rps(self) -> float:
        """Requests served per second of report wall time."""
        if self.wall_ms <= 0:
            return 0.0
        return self.total_requests / (self.wall_ms / 1e3)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-exportable service report."""
        queue = [r.queue_wait_ms for r in self.requests]
        compile_times = [
            r.compile_ms
            for r in self.requests
            if not r.shared and not r.result_cached
        ]
        return {
            "service": self.service,
            "wall_ms": round(self.wall_ms, 3),
            "requests": self.total_requests,
            "compiles": self.compiles,
            "dedup_shared": self.dedup_shared,
            "result_cache_hits": self.result_cache_hits,
            "failures": self.failures,
            "throughput_rps": round(self.throughput_rps, 3),
            "queue_wait_ms": {
                "mean": round(_mean(queue), 4),
                "max": round(max(queue), 4) if queue else 0.0,
            },
            "compile_ms": {
                "mean": round(_mean(compile_times), 4),
                "max": round(max(compile_times), 4)
                if compile_times
                else 0.0,
            },
            "cache": {
                name: snap.to_dict()
                for name, snap in _cache.stats().items()
            },
            "per_request": [r.to_dict() for r in self.requests],
        }

    def to_json(self, indent: int = 1) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def describe(self) -> str:
        """A one-line operator summary."""
        return (
            f"{self.service}: "
            f"{self.total_requests} requests -> {self.compiles} compiles "
            f"({self.dedup_shared} shared, "
            f"{self.result_cache_hits} result-cache, "
            f"{self.failures} failed) in {self.wall_ms:.1f}ms "
            f"({self.throughput_rps:.1f} req/s)"
        )
