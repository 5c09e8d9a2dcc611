"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold_suite --seed 1 --seconds 10 --trace 0

Run from the repository root.  Every metric is printed as one
``metric <name> = <value> <unit>`` line; the last line of standard
output is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` its metrics are the end-to-end
metrics of ``BENCHMARK.json``, measured untraced; with ``--trace 1``
they are the per-layer metrics, from a run under ``repro.obs.capture``
whose spans are written once, at the end, as a Chrome trace under
``.bench_build/perfbench/traces``.  The full result, stamped with the
host and source metadata, goes to ``.bench_build/perfbench/results``.

The run fails (exit code 1, ``"correct": false``) when an operation
fails its output check or when a count that must be deterministic
changes; it exits with code 2 when the program cannot be imported.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Units of the metrics printed beside the ones ``BENCHMARK.json`` names.
EXTRA_UNITS = {
    "failed_ratio": "ratio",
    "op_ms_p99": "ms",
    "raw_ops_per_s": "1/s",
    "speed": "ratio",
    "serve.unique_keys": "count",
    "machine.instructions": "count",
}


FRESH_IMPORTS = 4
_IMPORT_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import perfbench.workloads\n"
    "print(time.perf_counter() - start)\n"
)


def fresh_import_s(clock) -> float:
    """Scaled seconds a fresh interpreter takes to import the program."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, ROOT, os.path.join(ROOT, "src")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    clock.calibrate()
    return float(out.stdout) * clock.speed(start, time.perf_counter())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, traced: bool):
    """Whole passes until ``seconds`` have gone by (at least one).

    Each pass starts from a full collection, so garbage a pass leaves
    behind is not collected on the next pass's time.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        passes.append(workload.run_pass(traced))
    return passes


def end_to_end(passes, setup_s: float, geomean: float, rss_mb: float):
    from perfbench.telemetry import percentile

    latencies = [ms for p in passes for ms in p.latencies_ms]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(p.wall_s for p in passes),
        "raw_ops_per_s": len(latencies) / sum(p.raw_wall_s for p in passes),
        "speed": sum(p.wall_s for p in passes)
        / sum(p.raw_wall_s for p in passes),
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p95": percentile(latencies, 95),
        "op_ms_p99": percentile(latencies, 99),
        "fig9_speedup_geomean": geomean,
        "peak_rss_mb": rss_mb,
    }


def per_layer(workload, passes, spans, untraced_walls, names):
    from perfbench import telemetry

    n = len(passes)
    out = {name: 0.0 for name in names}
    for metric, ms in telemetry.layer_times_ms(spans).items():
        out[metric] = ms / n
    out.update(passes[0].counts)
    summed = {
        cache: tuple(sum(p.cache[cache][i] for p in passes) for i in (0, 1))
        for cache in telemetry.CACHES
    }
    out.update(telemetry.cache_metrics(summed))
    out.update(workload.layer_metrics(passes))
    if out["machine.run_ms"] > 0:
        out["machine.instructions_per_s"] = out["machine.instructions"] / (
            out["machine.run_ms"] / 1e3
        )
    traced_wall = sum(p.wall_s for p in passes) / n
    out["obs.overhead_ratio"] = (
        traced_wall / statistics.median(untraced_walls) - 1
    )
    return out


def determinism_mismatches(passes, state) -> list:
    """Counts that differ between passes, or from earlier runs.

    The seed changes only orders and values, so the counts of every
    seed must agree.
    """
    first = passes[0]
    out = [
        f"pass {i}: {name} {p.counts.get(name)!r} != {first.counts.get(name)!r}"
        for i, p in enumerate(passes[1:], 1)
        for name in sorted(set(p.counts) | set(first.counts))
        if p.counts.get(name) != first.counts.get(name)
    ]
    # Cache misses repeat for the first pass after set-up; later passes
    # of the same process find the caches warmer.
    gated = dict(first.counts)
    for cache, (_, misses) in first.cache.items():
        gated[f"cache.{cache}.misses"] = misses
    return out + state.check_counts(gated)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    try:
        from repro import obs

        from perfbench import gate, telemetry
        from perfbench.clock import SpeedClock
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    imported = time.perf_counter()
    clock = SpeedClock()
    clock.calibrate()
    import_s = statistics.median(
        [clock.scaled(_STARTED, imported)]
        + [fresh_import_s(clock) for _ in range(FRESH_IMPORTS)]
    )

    workload = WORKLOADS[args.workload](args.seed, clock)
    setup_s, setup_ops, failures = workload.setup()
    setup_s += import_s
    # What set-up built lives for the whole run; keep the collector
    # from rescanning it on every full collection of the measured part.
    gc.collect()
    gc.freeze()
    digest = gate.source_digest()
    state = gate.State(digest, workload.name)

    untraced, traced, trace_problems, spans = [], [], [], []
    trace_path = None
    if args.trace:
        walls = state.untraced_walls()
        if not walls:
            untraced = measure(workload, 0, traced=False)
            walls = [untraced[0].wall_s]
        with obs.capture(max_spans=5_000_000) as recorder:
            traced = measure(workload, args.seconds, traced=True)
        spans = recorder.spans()
        trace_path = os.path.join(
            gate.OUT_DIR, "traces",
            f"{workload.name}-seed{args.seed}.trace.json",
        )
        trace_problems = telemetry.export_trace(recorder, trace_path)
        if recorder.dropped_spans:
            trace_problems.append(f"{recorder.dropped_spans} spans dropped")
    else:
        untraced = measure(workload, args.seconds, traced=False)
        for p in untraced:
            state.add_untraced_wall(p.wall_s)
    passes = untraced + traced
    mismatches = determinism_mismatches(passes, state)
    state.save()

    failures = failures + [f for p in passes for f in p.failures]
    attempted = setup_ops + sum(p.attempted for p in passes)
    measured = traced or untraced
    metrics = end_to_end(
        measured, setup_s, workload.geomean, gate.peak_rss_mb()
    )
    metrics["failed_ratio"] = len(failures) / attempted
    metrics.update(passes[0].counts)
    for cache, (_, misses) in passes[0].cache.items():
        metrics[f"cache.{cache}.misses"] = misses
    units = dict(EXTRA_UNITS)
    units.update(
        (m["name"], m["unit"])
        for m in declared["end_to_end"] + declared["per_layer"]
    )
    names = [m["name"] for m in declared["end_to_end"]]
    if args.trace:
        names = [m["name"] for m in declared["per_layer"]]
        metrics.update(per_layer(workload, traced, spans, walls, names))

    reported = {name: metrics[name] for name in names}
    bad_values = [n for n, v in reported.items() if not math.isfinite(v)]
    correct = not (failures or mismatches or trace_problems or bad_values)

    meta = gate.metadata(args.seed, digest)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]!r} {units.get(name, 'count')}")
    if spans:
        for name, ms in sorted(telemetry.self_times_ms(spans).items()):
            print(f"self_ms {name} = {ms / len(traced):.3f}")
    for label, items in (
        ("failure", failures), ("nondeterministic", mismatches),
        ("trace", trace_problems), ("not finite", bad_values),
    ):
        for item in items[:20]:
            print(f"perfbench: {label}: {item}", file=sys.stderr)

    os.makedirs(os.path.join(gate.OUT_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        gate.OUT_DIR, "results",
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(result_path, "w") as fh:
        json.dump(
            {
                "meta": meta, "correct": correct, "attempted": attempted,
                "failures": failures[:100], "nondeterministic": mismatches,
                "trace_path": trace_path, "trace_problems": trace_problems,
                "metrics": {
                    n: {"value": v, "unit": units.get(n, "count")}
                    for n, v in metrics.items()
                },
            },
            fh, indent=1, sort_keys=True, default=str,
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            n: {"value": v if math.isfinite(v) else None, "unit": units[n]}
            for n, v in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
