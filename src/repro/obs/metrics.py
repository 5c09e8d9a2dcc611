"""The metrics registry: counters, gauges, histograms with labels.

Metric identity is ``(name, sorted labels)`` — e.g.
``cache.hits{cache="plans"}`` and ``cache.hits{cache="layouts"}`` are
separate series of one metric family, exactly the Prometheus data
model the serving ROADMAP wants to scrape.  Aggregation happens at
record time (one dict update under a lock), so a capture's memory is
proportional to the number of *series*, not the number of events —
a million cache lookups cost one counter cell.

Histograms keep count/sum/min/max plus power-of-two buckets
(``le_1, le_2, le_4 …``), enough to summarize latency distributions
without configurable bucket boundaries.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

__all__ = ["Histogram", "MetricsRegistry", "label_key"]

LabelKey = Tuple[Tuple[str, Any], ...]


def label_key(labels: Dict[str, Any]) -> LabelKey:
    """The canonical (sorted) identity of one label set."""
    return tuple(sorted(labels.items()))


class Histogram:
    """Count/sum/min/max plus power-of-two buckets of one series."""

    __slots__ = ("n", "total", "min", "max", "buckets")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: ``buckets[i]`` counts observations <= 2**i (i capped at 63).
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.n += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        exp = 0
        # Smallest power of two >= value (0 and negatives fall in le_1).
        v = value
        while v > 1 and exp < 63:
            v /= 2
            exp += 1
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.n,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.min, 6) if self.n else 0.0,
            "max": round(self.max, 6) if self.n else 0.0,
            "buckets": {
                f"le_{1 << exp}": n
                for exp, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Thread-safe aggregation of counter/gauge/histogram series."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], float] = {}
        self._gauges: Dict[Tuple[str, LabelKey], float] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter series."""
        self.count_series((name, label_key(labels)), value)

    def count_series(
        self, key: Tuple[str, LabelKey], value: float = 1
    ) -> None:
        """:meth:`count` for a prebuilt ``(name, label_key(labels))``.

        Hot callers build the key once and skip the per-call label
        sort.
        """
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set a gauge series to its latest value."""
        key = (name, label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record one observation into a histogram series."""
        key = (name, label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = Histogram()
            hist.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[Dict[str, Any]]]:
        """A JSON-friendly dump of every series."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                key: hist.to_dict()
                for key, hist in self._histograms.items()
            }

        def rows(data, render):
            out = []
            for (name, labels), value in sorted(
                data.items(), key=lambda item: (item[0][0], item[0][1])
            ):
                out.append(
                    {
                        "name": name,
                        "labels": {k: v for k, v in labels},
                        "value": render(value),
                    }
                )
            return out

        return {
            "counters": rows(counters, lambda v: v),
            "gauges": rows(gauges, lambda v: v),
            "histograms": rows(histograms, lambda v: v),
        }

    def clear(self) -> None:
        """Drop every series."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
