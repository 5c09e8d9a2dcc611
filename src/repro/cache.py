"""Layout interning and compilation caching.

A production deployment of the layout engine (the ROADMAP's serving
scenario) issues the same small set of layouts and conversions over
and over; Triton's C++ implementation and CuTe's layout algebra both
hash-cons layouts so composition, division, and conversion planning
are amortized.  This module is the Python equivalent: a handful of
named, bounded, LRU caches with shared statistics, plus the interning
registry that makes structurally equal :class:`LinearLayout` objects
the same object.

Caches
------
``layouts``
    The interning registry: canonical-bases key -> representative
    layout instance (see :meth:`LinearLayout.intern`).
``derivations``
    Expensive F2 derivations keyed on canonical layout keys:
    surjectivity rank, matrix views, inverses, left division, free
    variable masks.
``plans``
    Fully lowered :class:`ConversionPlan` objects keyed on
    ``(src, dst, hardware spec, planner options)`` — the one
    conversion memo; a plan's price is memoized on its program.
``engine``
    :func:`repro.engine.compile`'s anchors and global-access cycles
    keyed on the compile configuration ``(spec, mode, num_warps)``.

Every cached value is immutable or treated as immutable by all
callers; plans and layouts are shared across compilations.

Thread safety
-------------
The caches are shared by every compilation in the process, including
the worker pool of :class:`repro.serve.CompileService`, so the whole
module is safe under concurrent use (``docs/SERVING.md`` states the
contract; ``tests/test_cache_concurrency.py`` stresses it):

* Every :class:`BoundedCache` guards its map, its LRU eviction loop,
  and its statistics with one re-entrant lock.  Factories passed to
  :meth:`BoundedCache.get_or_create` run *outside* the lock (cached
  computations recurse into other caches), so two racing threads may
  compute the same value — the first insertion wins and every caller
  observes the same object afterwards.
* :meth:`BoundedCache.clear` bumps a generation counter; an insertion
  completing a lookup that started before the clear is dropped, so an
  explicit invalidation cannot be resurrected by in-flight factories.
* :func:`counters` reads *thread-local* hit/miss totals without
  taking any lock, which is what lets the pass manager attribute
  cache traffic to the pass that caused it even while other threads
  compile concurrently.
* The :func:`disabled` bypass is **thread-local**: it affects only the
  calling thread (a service worker debugging with the cache off must
  not disable it for the whole process); ``REPRO_CACHE=0`` turns
  caching off for the whole process.

Observability
-------------
While a :mod:`repro.obs` capture records, its
labeled counters ``cache.hits{cache=<name>}`` / ``cache.misses{...}``
hold the lookups made while it was installed, and evictions bump
``cache.evictions{...}``, so a capture attributes cache traffic per
cache while :func:`counters` keeps attributing it per thread/pass —
same events, two views.  The lookup counters are batched: every cache
keeps lifetime hit/miss totals (two integer bumps under the lock it
already holds), and the recorder folds in their growth when it is
uninstalled and before export (see
:func:`repro.obs.core.add_counter_source`), so a lookup costs the
same whether or not a capture is recording.  The same totals are the
only per-cache lookup count: :meth:`BoundedCache.stats` reports their
growth since the last :meth:`BoundedCache.clear`, so a capture that
spans a clear still counts every lookup.
:func:`publish_obs_gauges` exports the :func:`stats` snapshot as
gauges at capture time.

Off-switch
----------
Set the environment variable ``REPRO_CACHE=0`` (or use the
:func:`disabled` context manager) to bypass every cache for
debugging.  Results must be bit-identical either way;
``tests/test_cache.py`` holds that line.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Iterator, List

from repro.obs import core as _obs

__all__ = [
    "BoundedCache",
    "CacheStats",
    "cached",
    "clear",
    "counters",
    "counters_delta",
    "disabled",
    "enabled",
    "intern_layout",
    "publish_obs_gauges",
    "stats",
]

_MISSING = object()


class _ThreadCounters(threading.local):
    """Per-thread hit/miss totals, summed across every cache.

    Monotonic for the lifetime of the thread — :func:`clear` resets
    per-cache statistics but never these, so :func:`counters_delta`
    attribution cannot go backwards mid-pass.
    """

    def __init__(self):  # called once per thread by threading.local
        self.hits = 0
        self.misses = 0


_LOCAL = _ThreadCounters()


@dataclass
class CacheStats:
    """Hit/miss accounting of one named cache."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    maxsize: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (the ``hits + misses`` invariant)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly snapshot."""
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": round(self.hit_rate, 4),
        }


class BoundedCache:
    """A bounded LRU mapping with statistics, safe under threads.

    Entries are evicted least-recently-used first once ``maxsize`` is
    exceeded, so a long-running service cannot grow without bound.
    Lookups, insertions, and the eviction loop all run under one
    re-entrant lock; factory callables run *outside* the lock (cached
    computations recurse into other caches), so two racing threads may
    compute the same value — the first insertion wins and both see a
    consistent object thereafter.  An insertion whose lookup predates
    a :meth:`clear` is dropped rather than resurrecting invalidated
    state.
    """

    def __init__(self, name: str, maxsize: int = 4096, register: bool = True):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self._data: Dict[Hashable, Any] = {}
        # Re-entrant: an evicted value's __del__ (or a logging hook)
        # observing the cache must not deadlock against its own lock.
        self._lock = threading.RLock()
        # Lifetime lookups, never reset: the obs mirror reads them as
        # they are, stats() relative to the totals at the last clear().
        self._hits = 0
        self._misses = 0
        self._at_clear = (0, 0)
        self._evictions = 0
        self._generation = 0
        self._obs_hits = _obs.series_key("cache.hits", cache=name)
        self._obs_misses = _obs.series_key("cache.misses", cache=name)
        _OBS_MIRRORED.add(self)
        if register:
            _REGISTRY.append(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value, recording a hit or miss."""
        with self._lock:
            value = self._data.pop(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                _LOCAL.misses += 1
            else:
                self._data[key] = value  # re-insert: most recently used
                self._hits += 1
                _LOCAL.hits += 1
        return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> Any:
        """Insert a value; an earlier racing insertion wins."""
        return self._put(key, value, generation=None)

    def _put(self, key: Hashable, value: Any, generation: int | None) -> Any:
        """Insert under the lock, evicting LRU entries past capacity.

        ``generation`` is the cache generation observed when the
        caller's lookup missed; if a :meth:`clear` ran in between, the
        stale value is returned to the caller but *not* inserted.
        """
        evicted = 0
        try:
            with self._lock:
                if generation is not None and generation != self._generation:
                    return value
                existing = self._data.get(key, _MISSING)
                if existing is not _MISSING:
                    return existing
                self._data[key] = value
                # The eviction loop shares the insertion's critical
                # section: capacity can never be observed exceeded, and a
                # concurrent clear() cannot empty the dict mid-iteration
                # (maxsize >= 1 keeps next(iter(...)) well-defined here).
                while len(self._data) > self.maxsize:
                    self._data.pop(next(iter(self._data)))
                    self._evictions += 1
                    evicted += 1
                return value
        finally:
            if evicted and _obs.is_enabled():
                _obs.count("cache.evictions", evicted, cache=self.name)

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """The cached value, computing and inserting it on a miss.

        Atomic in the sense that matters: every thread asking for the
        same key receives the same object once any insertion has
        landed, and the factory never runs while holding the cache
        lock.
        """
        generation = self._generation
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value
        return self._put(key, factory(), generation=generation)

    def clear(self) -> None:
        """Drop every entry (statistics are reset too)."""
        with self._lock:
            self._generation += 1
            self._data.clear()
            self._at_clear = (self._hits, self._misses)
            self._evictions = 0

    def stats(self) -> CacheStats:
        """A point-in-time statistics snapshot.

        Lock-free: plain int reads are atomic under the GIL, so a
        snapshot never blocks compilations; a snapshot taken mid-put
        may tear across fields by one count, which monitoring
        tolerates.
        """
        # The baseline is read first, so a racing clear() cannot make
        # a count negative.
        base_hits, base_misses = self._at_clear
        return CacheStats(
            name=self.name,
            hits=self._hits - base_hits,
            misses=self._misses - base_misses,
            evictions=self._evictions,
            size=len(self._data),
            maxsize=self.maxsize,
        )


# ----------------------------------------------------------------------
# Global cache instances
# ----------------------------------------------------------------------
_REGISTRY: List[BoundedCache] = []
#: Every live cache, registered or not, for the obs lookup mirror.
_OBS_MIRRORED: "weakref.WeakSet[BoundedCache]" = weakref.WeakSet()

#: Interning registry: canonical layout key -> representative object.
layouts = BoundedCache("layouts", maxsize=8192)
#: Memoized F2 derivations (rank, matrix, inverse, division, masks).
derivations = BoundedCache("derivations", maxsize=16384)
#: The PlanCache: (src, dst, spec, options) -> ConversionPlan.
plans = BoundedCache("plans", maxsize=2048)
#: The engine's anchors and global-access cycles.
engine = BoundedCache("engine", maxsize=4096)


def _obs_lookup_totals() -> Dict[Any, int]:
    """Every live cache's lifetime hits and misses, by obs series."""
    totals: Dict[Any, int] = {}
    for cache in list(_OBS_MIRRORED):
        for key, n in (
            (cache._obs_hits, cache._hits),
            (cache._obs_misses, cache._misses),
        ):
            totals[key] = totals.get(key, 0) + n
    return totals


_obs.add_counter_source(_obs_lookup_totals)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in (
        "0",
        "off",
        "false",
        "no",
    )


#: ``REPRO_CACHE`` read once at import: the process-wide setting.
_ENV_ENABLED = _env_enabled()


class _ThreadBypass(threading.local):
    """Per-thread :func:`disabled` flag."""

    def __init__(self):
        self.active = False


_BYPASS = _ThreadBypass()


def enabled() -> bool:
    """Whether caching is currently active *for this thread*."""
    return _ENV_ENABLED and not _BYPASS.active


@contextmanager
def disabled() -> Iterator[None]:
    """A context in which every cache is bypassed (this thread only).

    Thread-local on purpose: a :class:`repro.serve.CompileService`
    worker debugging with the cache bypassed must not disable caching
    for every other in-flight compilation.  Bypassing does not drop
    existing entries — call :func:`clear` for that.
    """
    previous = _BYPASS.active
    _BYPASS.active = True
    try:
        yield
    finally:
        _BYPASS.active = previous


def cached(
    cache: BoundedCache, key: Hashable, factory: Callable[[], Any]
) -> Any:
    """``factory()`` memoized in ``cache`` under ``key``.

    The single gate every caching call site goes through: when the
    off-switch is thrown this degrades to a plain call.
    """
    if not enabled():
        return factory()
    return cache.get_or_create(key, factory)


def intern_layout(layout: Any) -> Any:
    """The canonical representative of a structurally equal layout.

    Keyed on :meth:`LinearLayout.canonical_key`, so two layouts with
    identical bases and output dims intern to the *same object* and
    downstream identity checks (``is``, dict keys) collapse.  Under
    concurrency the registry's first insertion wins, so racing threads
    interning equal layouts still agree on one representative.
    """
    if not enabled():
        return layout
    return layouts.get_or_create(layout.canonical_key(), lambda: layout)


def clear() -> None:
    """Empty every registered cache (the explicit invalidation hook)."""
    for cache in _REGISTRY:
        cache.clear()


def stats() -> Dict[str, CacheStats]:
    """Statistics for every registered cache, by name."""
    return {cache.name: cache.stats() for cache in _REGISTRY}


def publish_obs_gauges() -> None:
    """Export every cache's statistics as :mod:`repro.obs` gauges.

    The same numbers :func:`stats` returns, published as
    ``cache.size{cache=...}`` / ``cache.hit_rate{...}`` /
    ``cache.evictions_total{...}`` series.  Call at capture-export
    time (``python -m repro.obs capture`` does); no-op when
    observability is off, so it is always safe to call.
    """
    if not _obs.is_enabled():
        return
    for name, snap in stats().items():
        _obs.gauge("cache.size", snap.size, cache=name)
        _obs.gauge("cache.maxsize", snap.maxsize, cache=name)
        _obs.gauge("cache.hit_rate", snap.hit_rate, cache=name)
        _obs.gauge("cache.evictions_total", snap.evictions, cache=name)


def counters() -> Dict[str, int]:
    """Hit/miss totals of the **calling thread** across every cache.

    A cheap, lock-free, monotonic snapshot — the pass manager takes
    one before and after each pass and attributes the delta to that
    pass.  Because the totals are thread-local, the attribution stays
    correct while other threads (a :class:`repro.serve.CompileService`
    pool) hammer the same caches concurrently, and no lock is taken on
    the read.
    """
    return {"hits": _LOCAL.hits, "misses": _LOCAL.misses}


def counters_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Hits/misses accumulated *by this thread* since a
    :func:`counters` snapshot.

    Thread-local totals are monotonic (not reset by :func:`clear`),
    but the deltas stay clamped at zero as defense in depth — a
    snapshot carried across threads would otherwise produce nonsense.
    """
    now = counters()
    return {
        "hits": max(0, now["hits"] - before["hits"]),
        "misses": max(0, now["misses"] - before["misses"]),
    }
