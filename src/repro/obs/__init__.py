"""One observability layer: spans, metrics, Chrome-trace export.

The paper's robustness claim is that layout decisions and conversion
costs are *explainable*; this package is where the reproduction makes
them observable.  Every layer of the stack — pipeline passes
(:mod:`repro.engine.pipeline`), the serve request lifecycle
(:mod:`repro.serve.service`), the bounded caches
(:mod:`repro.cache`), plan lowering (:mod:`repro.codegen.plan`), and
the simulator (:mod:`repro.gpusim.machine`) — emits
hierarchical spans and labeled metrics through this one
zero-dependency API:

>>> from repro import obs
>>> with obs.capture() as rec:
...     with obs.span("compile", mode="linear"):
...         obs.count("cache.hits", 3, cache="plans")
>>> len(rec.spans())
1

A :func:`capture` block is the only way to record.  Outside one (the
default), every hook degrades to one ``None`` check, so production
compiles pay nothing and results are bit-identical either way
(``tests/test_obs.py`` holds both lines).

A capture has one export format, the Chrome trace-event JSON of
:func:`write_chrome_trace` (load it in Perfetto /
``chrome://tracing``); ``python -m repro.obs`` captures, summarizes,
and schema-checks those files.  See ``docs/OBSERVABILITY.md`` for
the span taxonomy and metric names.
"""

from repro.obs.core import (
    NOOP_SPAN,
    Recorder,
    Span,
    capture,
    count,
    gauge,
    is_enabled,
    observe,
    span,
)
from repro.obs.export import (
    chrome_trace,
    summarize_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "NOOP_SPAN",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "Span",
    "capture",
    "chrome_trace",
    "count",
    "gauge",
    "is_enabled",
    "observe",
    "span",
    "summarize_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]
