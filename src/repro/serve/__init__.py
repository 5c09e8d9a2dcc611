"""Concurrent compilation serving (see ``docs/SERVING.md``).

``CompileService`` batches and deduplicates compilation requests over
a thread pool; ``SingleFlight`` is the in-flight dedup primitive;
``RequestStats``/``ServiceReport`` are the observability layer.
Results are bit-identical to serial :func:`repro.engine.compile`.
"""

from repro.serve.service import CompileRequest, CompileService
from repro.serve.singleflight import SingleFlight
from repro.serve.stats import RequestStats, ServiceReport

__all__ = [
    "CompileRequest",
    "CompileService",
    "RequestStats",
    "ServiceReport",
    "SingleFlight",
]
