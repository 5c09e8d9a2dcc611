"""``python -m repro.obs`` — capture, summarize, convert, check.

Subcommands
-----------
``capture``
    Compile a kernel suite (Table 6 by default) through
    :class:`repro.serve.CompileService` with observability recording,
    execute a sample of the lowered conversions on the simulated
    machine, and export the capture as a Chrome trace (and optionally
    JSONL).  This is the CI entry point behind the ``REPRO_OBS=1``
    acceptance run.
``summary FILE``
    Digest a capture (JSONL or Chrome trace JSON): span counts and
    totals per name, counter values, histogram summaries.
``convert IN.jsonl OUT.json``
    JSONL capture -> Chrome trace-event JSON (same builder as direct
    export, so the result is identical).
``check FILE`` (also spelled ``--check FILE``)
    Validate a Chrome trace against the event schema; for traces our
    own ``capture`` produced (``otherData.suite`` set), additionally
    require that every pipeline pass, the served requests, the cache
    counters, and the simulator execution appear.
    Exit code 0 iff valid.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.obs.export import (
    chrome_trace_from_events,
    read_jsonl,
    summarize_events,
    validate_chrome_trace,
)

#: Span names / metric families a self-produced suite capture must
#: contain — the acceptance surface of the observability layer.
REQUIRED_SPANS = [
    "serve:request",
    "compile:kernel",
    "pass:anchor-selection",
    "pass:forward-propagation",
    "pass:backward-remat",
    "pass:lower-to-plans",
    "pass:cost-summary",
    "sim:run_program",
]
REQUIRED_METRICS = [
    "cache.hits",
    "cache.misses",
    "serve.requests",
    "sim.instructions",
]


def _load(path: str) -> Any:
    """A Chrome trace (one JSON object) or a JSONL event list."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            pass
    return read_jsonl(path)


def _coverage_problems(trace: Dict[str, Any]) -> List[str]:
    """Missing required spans/metrics of a suite capture."""
    events = trace.get("traceEvents", [])
    span_names = {e.get("name") for e in events if e.get("ph") == "X"}
    metric_names = set()
    for row in (
        trace.get("otherData", {}).get("metrics", {}).get("counters", [])
    ):
        metric_names.add(row.get("name"))
    problems = []
    for name in REQUIRED_SPANS:
        if name not in span_names:
            problems.append(f"coverage: no {name!r} span in the trace")
    for name in REQUIRED_METRICS:
        if name not in metric_names:
            problems.append(f"coverage: no {name!r} counter in the trace")
    return problems


def cmd_capture(args: argparse.Namespace) -> int:
    from repro.bench.obsbench import capture_suite
    from repro.obs.export import write_chrome_trace, write_jsonl

    recorder, info = capture_suite(
        suite_name=args.suite,
        workers=args.workers,
        dup=args.dup,
        simulate=args.simulate,
    )
    trace_bytes = write_chrome_trace(recorder, args.output, suite=args.suite)
    print(json.dumps(info, indent=1))
    print(f"wrote {args.output} ({trace_bytes} bytes)")
    if args.jsonl:
        jsonl_bytes = write_jsonl(recorder, args.jsonl)
        print(f"wrote {args.jsonl} ({jsonl_bytes} bytes)")
    return 1 if info["failures"] else 0


def cmd_summary(args: argparse.Namespace) -> int:
    data = _load(args.file)
    if isinstance(data, dict):  # Chrome trace: rebuild event records
        events = [
            {
                "type": "span",
                "name": e["name"],
                "dur_us": e.get("dur", 0.0),
            }
            for e in data.get("traceEvents", [])
            if e.get("ph") == "X"
        ]
        events.append(
            {
                "type": "metrics",
                **data.get("otherData", {}).get("metrics", {}),
            }
        )
    else:
        events = data
    print(summarize_events(events))
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    events = read_jsonl(args.input)
    trace = chrome_trace_from_events(events, suite=args.suite)
    with open(args.output, "w") as fh:
        json.dump(trace, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.output} ({len(trace['traceEvents'])} events)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    trace = _load(args.file)
    if not isinstance(trace, dict):
        print(f"FAIL: {args.file} is not a Chrome trace JSON object")
        return 1
    problems = validate_chrome_trace(trace)
    if not problems and trace.get("otherData", {}).get("suite"):
        problems = _coverage_problems(trace)
    for problem in problems:
        print(f"FAIL: {problem}")
    if problems:
        return 1
    spans = trace.get("otherData", {}).get("spans", "?")
    print(
        f"ok: {args.file} valid "
        f"({len(trace['traceEvents'])} events, {spans} spans)"
    )
    return 0


def main(argv: List[str]) -> int:
    # ``--check FILE`` is the documented spelling in CI; rewrite it to
    # the subcommand form.
    if argv and argv[0] == "--check":
        argv = ["check", *argv[1:]]
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Capture, summarize, convert, and check "
        "observability traces (see docs/OBSERVABILITY.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_capture = sub.add_parser(
        "capture", help="compile a suite with recording and export"
    )
    p_capture.add_argument(
        "--suite", default="table6", choices=["table6", "fig9"]
    )
    p_capture.add_argument("-o", "--output", default="obs_trace.json")
    p_capture.add_argument(
        "--jsonl", default=None, help="also write the JSONL event stream"
    )
    p_capture.add_argument("--workers", type=int, default=4)
    p_capture.add_argument(
        "--dup",
        type=int,
        default=2,
        help="suite repetitions (shows dedup in the trace)",
    )
    p_capture.add_argument(
        "--simulate",
        type=int,
        default=12,
        help="conversions to execute on the simulated machine",
    )
    p_capture.set_defaults(func=cmd_capture)

    p_summary = sub.add_parser(
        "summary", help="digest a JSONL or Chrome trace capture"
    )
    p_summary.add_argument("file")
    p_summary.set_defaults(func=cmd_summary)

    p_convert = sub.add_parser(
        "convert", help="JSONL capture -> Chrome trace JSON"
    )
    p_convert.add_argument("input")
    p_convert.add_argument("output")
    p_convert.add_argument("--suite", default=None)
    p_convert.set_defaults(func=cmd_convert)

    p_check = sub.add_parser(
        "check", help="validate a Chrome trace (schema + coverage)"
    )
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
