"""Spans and the capture recorder — the heart of :mod:`repro.obs`.

One process-wide :class:`Recorder`, installed for the duration of a
``with obs.capture() as rec:`` block (the only way to record),
receives every finished :class:`Span` and owns the
:class:`~repro.obs.metrics.MetricsRegistry`.  When no recorder is
installed — the default — :func:`span` returns one shared no-op
context manager and the metric helpers return immediately, so the
instrumentation hooks threaded through the engine, the serve layer,
the caches, and the simulator cost nothing measurable
(``benchmarks/bench_obs.py`` gates that line).

Span hierarchy is *per thread*: each thread keeps a stack of open
spans; a new span's parent is the top of the calling thread's stack
and its trace id is inherited from that parent (a root span starts a
fresh trace).  That matches how the stack actually executes — a
:class:`repro.serve.CompileService` worker thread opens
``serve:request`` and every pipeline pass underneath nests inside it
— without any cross-thread context plumbing.

Timing uses one ``perf_counter`` origin per recorder, so span
timestamps across threads share a clock and export directly as
Chrome trace-event microseconds.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import LabelKey, MetricsRegistry, label_key

__all__ = [
    "Recorder",
    "Span",
    "add_counter_source",
    "capture",
    "count",
    "current_recorder",
    "gauge",
    "is_enabled",
    "observe",
    "span",
]

#: Monotonic span/trace id source (``next`` is atomic under the GIL).
_IDS = itertools.count(1)

#: Running counter totals kept outside any recorder, each a callable
#: returning ``{series key: total so far}`` (the caches' lookup
#: counts).  The installed recorder folds in what they grew by, in
#: one batch per sync instead of one counter bump per event.
_SOURCES: List[Callable[[], Dict[Tuple[str, LabelKey], float]]] = []


def add_counter_source(
    source: Callable[[], Dict[Tuple[str, LabelKey], float]]
) -> None:
    """Register running totals mirrored into every capture's counters."""
    _SOURCES.append(source)


def _source_totals() -> Dict[Tuple[str, LabelKey], float]:
    totals: Dict[Tuple[str, LabelKey], float] = {}
    for source in _SOURCES:
        totals.update(source())
    return totals


class Span:
    """One finished (or open) operation: name, ids, timing, attributes.

    ``attrs`` carries typed key/value details (pass counters, request
    stats, simulator totals); values must be JSON-serializable.
    Instances are created by :func:`span` — not directly — and become
    immutable-by-convention once recorded.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "thread_id",
        "thread_name",
        "start_us",
        "end_us",
        "attrs",
        "status",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        thread_id: int,
        thread_name: str,
        start_us: float,
        attrs: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.thread_id = thread_id
        self.thread_name = thread_name
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs: Dict[str, Any] = {} if attrs is None else attrs
        self.status = "ok"

    @property
    def duration_us(self) -> float:
        """Span duration in microseconds (0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds (0 while still open)."""
        return self.duration_us / 1e3

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute."""
        self.attrs[key] = value

    def set_attrs(self, attrs: Dict[str, Any]) -> None:
        """Attach many attributes at once."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} trace={self.trace_id} "
            f"id={self.span_id} parent={self.parent_id} "
            f"{self.duration_ms:.3f}ms>"
        )


class _SpanStack(threading.local):
    """Per-thread stack of open spans (hierarchy without plumbing)."""

    def __init__(self):
        self.stack: List[Span] = []


_STACK = _SpanStack()


class Recorder:
    """Collects finished spans and owns the metrics registry.

    Bounded: past ``max_spans`` finished spans, new ones are counted
    in ``dropped_spans`` instead of stored, so a long-running service
    with observability left on cannot grow without bound.
    """

    def __init__(self, max_spans: int = 200_000):
        if max_spans <= 0:
            raise ValueError(f"max_spans must be positive, got {max_spans}")
        self.max_spans = max_spans
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self.dropped_spans = 0
        #: perf_counter origin shared by every span of this capture.
        self.origin = time.perf_counter()
        #: Wall-clock epoch of the origin (for human-readable export).
        self.epoch = time.time()
        #: Counter-source totals at install or at the last sync.
        self._source_base: Dict[Tuple[str, LabelKey], float] = {}

    def now_us(self) -> float:
        """Microseconds since this recorder's origin."""
        return (time.perf_counter() - self.origin) * 1e6

    def record(self, span: Span) -> None:
        """Store one finished span (or count it as dropped)."""
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped_spans += 1
                return
            self._spans.append(span)

    def sync_sources(self) -> None:
        """Add what the counter sources counted since the last sync.

        Runs when the recorder is uninstalled and before export; it
        does nothing unless this recorder is the installed one, so a
        capture counts exactly the events of its own block.
        """
        if _recorder is not self:
            return
        now = _source_totals()
        with self._lock:
            base, self._source_base = self._source_base, now
        for key, total in now.items():
            # A total shrinks only when a source's object is collected.
            grown = total - base.get(key, 0)
            if grown > 0:
                self.metrics.count_series(key, grown)

    def spans(self) -> List[Span]:
        """A snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop every recorded span and metric."""
        with self._lock:
            self._spans.clear()
            self.dropped_spans = 0
        self.metrics.clear()

    def __len__(self) -> int:
        return len(self._spans)


#: The installed recorder; ``None`` means observability is off.
_recorder: Optional[Recorder] = None


def is_enabled() -> bool:
    """Whether a recorder is installed (the hot-path gate)."""
    return _recorder is not None


def current_recorder() -> Optional[Recorder]:
    """The installed recorder, if any."""
    return _recorder


def _install(recorder: Optional[Recorder]) -> Optional[Recorder]:
    """Make ``recorder`` the installed one; returns the previous.

    The outgoing recorder syncs its counter sources first, and the
    incoming one starts counting from the sources' current totals.
    """
    global _recorder
    previous = _recorder
    if previous is not None:
        previous.sync_sources()
    if recorder is not None:
        recorder._source_base = _source_totals()
    _recorder = recorder
    return previous


class capture:
    """``with obs.capture() as rec:`` — record for the block's duration.

    Installs a fresh recorder on entry and restores the previous
    state (usually: disabled) on exit; the recorder stays readable
    afterwards for assertions and export.  Re-entrant in the sense
    that nesting replaces the recorder for the inner block only.
    """

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.recorder: Optional[Recorder] = None
        self._previous: Optional[Recorder] = None

    def __enter__(self) -> Recorder:
        self.recorder = Recorder(max_spans=self.max_spans)
        self._previous = _install(self.recorder)
        return self.recorder

    def __exit__(self, *_exc) -> None:
        _install(self._previous)


# ----------------------------------------------------------------------
# Span context managers
# ----------------------------------------------------------------------
class _NoopSpan:
    """The shared disabled-path span: every method is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, key: str, value: Any) -> None:
        pass

    def set_attrs(self, attrs: Dict[str, Any]) -> None:
        pass

    @property
    def duration_ms(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


class _SpanHandle:
    """Context manager that opens a :class:`Span` on the thread stack.

    Binds the recorder at construction: a span that outlives a
    :func:`capture` block still lands in the recorder that was active
    when it started, never in a later capture it doesn't belong to.
    """

    __slots__ = ("_recorder", "_name", "_attrs", "span")

    def __init__(self, recorder: Recorder, name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        stack = _STACK.stack
        if stack:
            parent = stack[-1]
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(_IDS), None
        thread = threading.current_thread()
        # Positional, and the span adopts the attrs dict :func:`span`
        # built for it: this runs on every recorded span.
        sp = Span(
            self._name, trace_id, next(_IDS), parent_id,
            thread.ident or 0, thread.name, self._recorder.now_us(),
            self._attrs,
        )
        stack.append(sp)
        self.span = sp
        return sp

    def __exit__(self, exc_type, exc, _tb) -> bool:
        sp = self.span
        stack = _STACK.stack
        # Pop exactly this span; tolerate a corrupted stack rather
        # than masking the caller's exception.
        if stack and stack[-1] is sp:
            stack.pop()
        elif sp in stack:  # pragma: no cover - defensive
            stack.remove(sp)
        sp.end_us = self._recorder.now_us()
        if exc_type is not None:
            sp.status = "error"
            sp.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._recorder.record(sp)
        return False


def span(name: str, **attrs: Any):
    """A context manager recording one hierarchical span.

    Usage::

        with obs.span("pass:forward-propagation", mode="linear") as sp:
            ...
            sp.set("conversions_inserted", n)

    Disabled path: returns the shared no-op singleton without
    allocating anything.
    """
    rec = _recorder
    if rec is None:
        return NOOP_SPAN
    return _SpanHandle(rec, name, attrs)


# ----------------------------------------------------------------------
# Metric helpers (module-level convenience over the registry)
# ----------------------------------------------------------------------
def count(name: str, value: float = 1, **labels: Any) -> None:
    """Increment a counter (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.metrics.count(name, value, **labels)


def series_key(name: str, **labels: Any) -> Tuple[str, LabelKey]:
    """The registry key of one labeled series.

    For :meth:`~repro.obs.metrics.MetricsRegistry.count_series` and
    counter sources (see :func:`add_counter_source`).
    """
    return (name, label_key(labels))


def gauge(name: str, value: float, **labels: Any) -> None:
    """Set a gauge to its latest value (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.metrics.gauge(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Record one histogram observation (no-op when disabled)."""
    rec = _recorder
    if rec is not None:
        rec.metrics.observe(name, value, **labels)

