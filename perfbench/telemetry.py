"""Per-layer accounting: spans, self time, cache deltas, trace export.

The benchmark wraps its own calls into each layer in
:func:`repro.obs.span` (a no-op unless a capture is active) and reads
the spans the program already records (``compile:kernel``,
``pass:<name>``, ``codegen:lower_plan``, ``sim:run_program``,
``serve:request``).  A layer's time is the *self* time of its spans:
each span's duration minus the durations of its child spans, so time
inside a nested layer is billed to that layer only.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro import cache
from repro.obs import validate_chrome_trace, write_chrome_trace

CACHES = ("layouts", "derivations", "plans", "engine")

#: Span name -> the per-layer time metric its self time counts toward.
SPAN_LAYER = {
    "kernels:build": "kernels.build_ms",
    "pass:anchor-selection": "engine.anchor-selection_ms",
    "pass:forward-propagation": "engine.forward-propagation_ms",
    "pass:backward-remat": "engine.backward-remat_ms",
    "pass:lower-to-plans": "engine.lower-to-plans_ms",
    "pass:cost-summary": "engine.cost-summary_ms",
    "codegen:plan": "codegen.plan_ms",
    "codegen:lower_plan": "program.lower_ms",
    "program:lower_plan": "program.lower_ms",
    "opcost:price_program": "opcost.price_ms",
    "registers:distribute": "registers.distribute_ms",
    "registers:check": "registers.check_ms",
    "machine:run_program": "machine.run_ms",
    "sim:run_program": "machine.run_ms",
}


def self_times_ms(spans) -> Dict[str, float]:
    """Total self time (ms) per span name: duration minus children."""
    children_us: Dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            children_us[sp.parent_id] += sp.duration_us
    out: Dict[str, float] = defaultdict(float)
    for sp in spans:
        out[sp.name] += (sp.duration_us - children_us[sp.span_id]) / 1e3
    return dict(out)


def layer_times_ms(spans) -> Dict[str, float]:
    """Self time rolled up into the per-layer time metrics."""
    out = {metric: 0.0 for metric in SPAN_LAYER.values()}
    for name, ms in self_times_ms(spans).items():
        metric = SPAN_LAYER.get(name)
        if metric is not None:
            out[metric] += ms
    return out


def export_trace(recorder, path: str) -> List[str]:
    """Write the capture as a Chrome trace; returns schema problems."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_chrome_trace(recorder, path, suite="perfbench")
    with open(path) as fh:
        return validate_chrome_trace(json.load(fh))


def cache_snapshot() -> Dict[str, tuple]:
    """(hits, misses) of every named cache."""
    stats = cache.stats()
    return {name: (stats[name].hits, stats[name].misses) for name in CACHES}


def cache_delta(before: Dict[str, tuple]) -> Dict[str, tuple]:
    """(hits, misses) per cache since ``before``."""
    now = cache_snapshot()
    return {
        name: (now[name][0] - before[name][0], now[name][1] - before[name][1])
        for name in CACHES
    }


def cache_metrics(delta: Dict[str, tuple]) -> Dict[str, float]:
    """``cache.<name>.misses`` and ``cache.<name>.hit_rate``."""
    out: Dict[str, float] = {}
    for name, (hits, misses) in delta.items():
        out[f"cache.{name}.misses"] = misses
        out[f"cache.{name}.hit_rate"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation); NaN when empty."""
    return float(np.percentile(values, q)) if len(values) else float("nan")
