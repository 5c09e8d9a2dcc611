"""The one export format: Chrome trace-event JSON.

A capture exports as one object (``{"traceEvents": [...],
"otherData": {...}}``) loadable in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``: spans are complete (``"ph": "X"``) events
with microsecond timestamps, threads get ``thread_name`` metadata
events, and counter metrics become ``"ph": "C"`` tracks.  The full
metrics snapshot and the dropped-span count ride in ``otherData``
(ignored by viewers, read by :func:`summarize_trace`).

:func:`validate_chrome_trace` is the schema check behind
``python -m repro.obs --check``; it returns a list of human-readable
problems (empty = valid) so CI can gate on exported captures.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.obs.core import Recorder

__all__ = [
    "chrome_trace",
    "summarize_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: Every event belongs to one process: the one that recorded it.
_PID = 1


#: Span names are ``category:detail``; the category becomes the
#: Chrome-trace ``cat`` field so Perfetto can filter by subsystem.
def _category(name: str) -> str:
    return name.split(":", 1)[0] if ":" in name else "span"


def _series_name(row: Dict[str, Any]) -> str:
    """``name{k=v,...}`` of one metrics-snapshot row."""
    labels = row.get("labels", {})
    label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return row["name"] + (f"{{{label_text}}}" if label_text else "")


def chrome_trace(
    recorder: Recorder, suite: Optional[str] = None
) -> Dict[str, Any]:
    """The capture as a Chrome trace-event JSON object."""
    recorder.sync_sources()
    spans = recorder.spans()
    metrics = recorder.metrics.snapshot()
    trace_events: List[Dict[str, Any]] = []
    named_threads: Dict[int, str] = {}
    end_ts = 0.0
    for sp in spans:
        named_threads.setdefault(sp.thread_id, sp.thread_name)
        ts = round(sp.start_us, 3)
        dur = max(round(sp.duration_us, 3), 0.0)
        end_ts = max(end_ts, ts + dur)
        trace_events.append(
            {
                "name": sp.name,
                "cat": _category(sp.name),
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": _PID,
                "tid": sp.thread_id,
                "args": {
                    "trace_id": sp.trace_id,
                    "span_id": sp.span_id,
                    "parent_id": sp.parent_id,
                    "status": sp.status,
                    **sp.attrs,
                },
            }
        )
    for tid, name in named_threads.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    for row in metrics["counters"]:
        # A start-and-end pair renders a visible counter track.
        for ts, value in ((0.0, 0), (round(end_ts, 3), row["value"])):
            trace_events.append(
                {
                    "name": _series_name(row),
                    "cat": "metric",
                    "ph": "C",
                    "ts": ts,
                    "pid": _PID,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "epoch": recorder.epoch,
            "spans": len(spans),
            "dropped_spans": recorder.dropped_spans,
            "suite": suite,
            "metrics": metrics,
        },
    }


def write_chrome_trace(
    recorder: Recorder, path: str, suite: Optional[str] = None
) -> int:
    """Write the Chrome trace JSON; returns bytes written."""
    data = json.dumps(chrome_trace(recorder, suite=suite), indent=1)
    with open(path, "w") as fh:
        fh.write(data + "\n")
    return len(data.encode()) + 1


_VALID_PHASES = {"X", "B", "E", "M", "C", "I", "i"}


def validate_chrome_trace(obj: Any) -> List[str]:
    """Schema problems of one Chrome trace object (empty = valid)."""
    problems: List[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        for field, types in (
            ("name", str),
            ("pid", (int,)),
            ("tid", (int,)),
            ("ts", (int, float)),
        ):
            if not isinstance(event.get(field), types):
                problems.append(
                    f"{where}: missing/invalid {field!r} "
                    f"({event.get(field)!r})"
                )
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs dur >= 0, got {dur!r}")
        if len(problems) > 25:
            problems.append("... (truncated)")
            break
    return problems


def summarize_trace(trace: Dict[str, Any]) -> str:
    """A human-readable digest of a valid Chrome trace.

    Span counts and totals per name come from the ``X`` events; the
    dropped-span count and the counter and histogram series come from
    ``otherData``.
    """
    other = trace.get("otherData", {})
    by_name: Dict[str, List[float]] = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "X":
            by_name.setdefault(event["name"], []).append(event["dur"])
    spans = sum(len(durs) for durs in by_name.values())
    lines = [f"spans: {spans} (dropped {other.get('dropped_spans', 0)})"]
    for name in sorted(by_name):
        durs = by_name[name]
        total_ms = sum(durs) / 1e3
        lines.append(
            f"  {name}: n={len(durs)} total={total_ms:.3f}ms "
            f"mean={total_ms / len(durs):.3f}ms"
        )
    metrics = other.get("metrics")
    if metrics:
        counters = metrics.get("counters", [])
        lines.append(f"counters: {len(counters)}")
        for row in counters:
            lines.append(f"  {_series_name(row)} = {row['value']:g}")
        hists = metrics.get("histograms", [])
        if hists:
            lines.append(f"histograms: {len(hists)}")
            for row in hists:
                value = row["value"]
                lines.append(
                    f"  {row['name']}: n={value['count']} "
                    f"mean={value['mean']:.4g} max={value['max']:.4g}"
                )
    return "\n".join(lines)
