"""Concurrent compilation serving (see ``docs/SERVING.md``).

``CompileService`` batches and deduplicates compilation requests on
one compile thread, with one flight per request key: a key's compile runs
once, concurrent requests share it, and later ones are answered from
its result.  ``RequestStats``/``ServiceReport`` are the observability
layer.  Results are bit-identical to serial :func:`repro.engine.compile`.
"""

from repro.serve.service import CompileRequest, CompileService
from repro.serve.stats import RequestStats, ServiceReport

__all__ = [
    "CompileRequest",
    "CompileService",
    "RequestStats",
    "ServiceReport",
]
