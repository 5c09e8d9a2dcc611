"""Exporters: JSONL event streams and Chrome trace-event JSON.

Two interchangeable on-disk forms of one capture:

``JSONL``
    One JSON object per line — every finished span (``type: span``)
    followed by one ``type: metrics`` record holding the registry
    snapshot and one ``type: meta`` record.  Greppable, streamable,
    and the input format of ``python -m repro.obs summary/convert``.

``Chrome trace-event JSON``
    The object form (``{"traceEvents": [...], "otherData": {...}}``)
    loadable in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``: spans are complete (``"ph": "X"``) events
    with microsecond timestamps, threads get ``thread_name`` metadata
    events, and counter metrics become ``"ph": "C"`` tracks.  The
    full metrics snapshot rides in ``otherData.metrics`` (ignored by
    viewers, read by ``python -m repro.obs summary``).

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
    "chrome_trace_from_events",
    "jsonl_events",
    "read_jsonl",
    "summarize_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]

#: Span names are ``category:detail``; the category becomes the
#: Chrome-trace ``cat`` field so Perfetto can filter by subsystem.
def _category(name: str) -> str:
    return name.split(":", 1)[0] if ":" in name else "span"


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def jsonl_events(recorder: Recorder) -> List[Dict[str, Any]]:
    """Every event record of a capture, spans first, then metrics."""
    recorder.sync_sources()
    events: List[Dict[str, Any]] = [
        span.to_dict() for span in recorder.spans()
    ]
    events.append(
        {"type": "metrics", **recorder.metrics.snapshot()}
    )
    events.append(
        {
            "type": "meta",
            "epoch": recorder.epoch,
            "spans": len(recorder),
            "dropped_spans": recorder.dropped_spans,
        }
    )
    return events


def write_jsonl(recorder: Recorder, path: str) -> int:
    """Write the capture as JSONL; returns bytes written."""
    text = "\n".join(
        json.dumps(event, sort_keys=True)
        for event in jsonl_events(recorder)
    )
    data = text + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return len(data.encode())


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL capture back into event records."""
    events = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def chrome_trace_from_events(
    events: List[Dict[str, Any]],
    pid: int = 1,
    suite: Optional[str] = None,
) -> Dict[str, Any]:
    """JSONL event records -> one Chrome trace-event JSON object.

    The shared code path of direct export (:func:`chrome_trace`) and
    ``python -m repro.obs convert``, so both produce byte-identical
    traces from the same capture.
    """
    spans = [e for e in events if e.get("type") == "span"]
    metrics = next(
        (e for e in events if e.get("type") == "metrics"),
        {"counters": [], "gauges": [], "histograms": []},
    )
    meta = next((e for e in events if e.get("type") == "meta"), {})
    trace_events: List[Dict[str, Any]] = []
    named_threads: Dict[int, str] = {}
    end_ts = 0.0
    for rec in spans:
        tid = rec.get("thread_id", 0)
        named_threads.setdefault(tid, rec.get("thread_name", f"thread-{tid}"))
        ts = float(rec.get("ts_us", 0.0))
        dur = max(float(rec.get("dur_us", 0.0)), 0.0)
        end_ts = max(end_ts, ts + dur)
        trace_events.append(
            {
                "name": rec["name"],
                "cat": _category(rec["name"]),
                "ph": "X",
                "ts": round(ts, 3),
                "dur": round(dur, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "trace_id": rec.get("trace_id"),
                    "span_id": rec.get("span_id"),
                    "parent_id": rec.get("parent_id"),
                    "status": rec.get("status", "ok"),
                    **rec.get("attrs", {}),
                },
            }
        )
    for tid, name in named_threads.items():
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    for row in metrics.get("counters", []):
        labels = row.get("labels", {})
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        name = row["name"] + (f"{{{label_text}}}" if label_text else "")
        # A start-and-end pair renders a visible counter track.
        for ts, value in ((0.0, 0), (round(end_ts, 3), row["value"])):
            trace_events.append(
                {
                    "name": name,
                    "cat": "metric",
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    metrics_snapshot = {
        key: metrics.get(key, [])
        for key in ("counters", "gauges", "histograms")
    }
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "epoch": meta.get("epoch"),
            "spans": len(spans),
            "dropped_spans": meta.get("dropped_spans", 0),
            "suite": suite,
            "metrics": metrics_snapshot,
        },
    }


def chrome_trace(
    recorder: Recorder, pid: int = 1, suite: Optional[str] = None
) -> Dict[str, Any]:
    """The capture as a Chrome trace-event JSON object."""
    trace = chrome_trace_from_events(
        jsonl_events(recorder), pid=pid, suite=suite
    )
    trace["otherData"]["epoch"] = recorder.epoch
    return trace


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


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------
def summarize_events(events: List[Dict[str, Any]]) -> str:
    """A human-readable digest of a JSONL capture's events."""
    spans = [e for e in events if e.get("type") == "span"]
    metrics = next(
        (e for e in events if e.get("type") == "metrics"), None
    )
    meta = next((e for e in events if e.get("type") == "meta"), None)
    by_name: Dict[str, List[float]] = {}
    for event in spans:
        by_name.setdefault(event["name"], []).append(
            event.get("dur_us", 0.0)
        )
    lines = [f"spans: {len(spans)}"]
    if meta:
        lines[0] += f" (dropped {meta.get('dropped_spans', 0)})"
    for name in sorted(by_name):
        durs = by_name[name]
        total_ms = sum(durs) / 1e3
        lines.append(
            f"  {name}: n={len(durs)} total={total_ms:.3f}ms "
            f"mean={total_ms / len(durs):.3f}ms"
        )
    if metrics:
        counters = metrics.get("counters", [])
        lines.append(f"counters: {len(counters)}")
        for row in counters:
            labels = row.get("labels", {})
            label_text = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            )
            suffix = f"{{{label_text}}}" if label_text else ""
            lines.append(f"  {row['name']}{suffix} = {row['value']:g}")
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
