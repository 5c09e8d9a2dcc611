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
    stats, simulator totals); values must be JSON-serializable.  A
    span may instead :meth:`adopt` a record that already holds them (a
    pass's :class:`~repro.engine.pipeline.PassDiagnostics`, a request's
    :class:`~repro.serve.stats.RequestStats`): its ``to_dict()`` joins
    ``attrs`` once, when they are first read.
    Instances are created by :func:`span` — not directly — and are
    their own context manager: entering opens the span on the calling
    thread's stack (its ids, thread and start time), exiting times it
    and hands it to the recorder that was installed when :func:`span`
    made it, never to a later capture it does not belong to.  A
    recorded span is immutable by convention.
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
        "_attrs",
        "_record",
        "status",
        "_recorder",
    )

    def __init__(
        self, recorder: "Recorder", name: str, attrs: Dict[str, Any]
    ):
        self._recorder = recorder
        self.name = name
        # The span adopts the attrs dict :func:`span` built for it.
        self._attrs = attrs
        self._record: Any = None
        self.end_us: Optional[float] = None
        self.status = "ok"

    def __enter__(self) -> "Span":
        local = _STACK
        stack = local.stack
        if stack:
            parent = stack[-1]
            self.trace_id, self.parent_id = parent.trace_id, parent.span_id
        else:
            self.trace_id, self.parent_id = next(_IDS), None
        self.span_id = next(_IDS)
        self.thread_id = local.ident
        self.thread_name = local.name
        stack.append(self)
        self.start_us = self._recorder.now_us()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.end_us = self._recorder.now_us()
        stack = _STACK.stack
        # Pop exactly this span; tolerate a corrupted stack rather
        # than masking the caller's exception.
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - defensive
            stack.remove(self)
        if exc_type is not None:
            self.status = "error"
            self._attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        # Dropping the recorder leaves no recorder <-> span cycle.
        recorder, self._recorder = self._recorder, None
        recorder.record(self)
        return False

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

    @property
    def attrs(self) -> Dict[str, Any]:
        """The span's attributes, an adopted record's included."""
        record = self._record
        if record is not None:
            self._record = None
            self._attrs.update(record.to_dict())
        return self._attrs

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute."""
        self._attrs[key] = value

    def set_attrs(self, attrs: Dict[str, Any]) -> None:
        """Attach many attributes at once."""
        self._attrs.update(attrs)

    def adopt(self, record: Any) -> None:
        """Take ``record.to_dict()`` as attributes, without copying it
        now: the record is read when :attr:`attrs` first is (at export),
        so it must not change after its span ends."""
        self._record = record

    def __repr__(self) -> str:
        return (
            f"<Span {self.name!r} trace={getattr(self, 'trace_id', None)} "
            f"id={getattr(self, 'span_id', None)} "
            f"parent={getattr(self, 'parent_id', None)} "
            f"{self.duration_ms:.3f}ms>"
        )


class _SpanStack(threading.local):
    """Per-thread stack of open spans (hierarchy without plumbing).

    Also holds the thread's ident and name, looked up once, on the
    thread's first span, instead of once per span.
    """

    def __init__(self):
        self.stack: List[Span] = []
        thread = threading.current_thread()
        self.ident = thread.ident or 0
        self.name = thread.name


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
        """Store one finished span (or count it as dropped).

        Lock-free: ``list.append`` is atomic under the GIL, and the
        length check bounds the list (threads racing past it at the
        bound can add at most one span each).
        """
        spans = self._spans
        if len(spans) >= self.max_spans:
            self.dropped_spans += 1
            return
        spans.append(span)

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

    def adopt(self, record: Any) -> None:
        pass

    @property
    def duration_ms(self) -> float:
        return 0.0

    def __repr__(self) -> str:
        return "<noop span>"


NOOP_SPAN = _NoopSpan()


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
    return Span(rec, name, attrs)


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
