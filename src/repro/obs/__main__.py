"""``python -m repro.obs`` — capture, summarize, check.

Subcommands
-----------
``capture``
    Compile a kernel suite (Table 6 by default) through
    :class:`repro.serve.CompileService` inside an ``obs.capture()``
    block, execute a sample of the lowered conversions on the
    simulated machine, and export the capture as a Chrome trace.
    This is CI's capture run.
``summary FILE``
    Digest a Chrome trace: span counts and totals per name, the
    dropped-span count, counter values, histogram summaries.
``check FILE`` (also spelled ``--check FILE``)
    Validate a Chrome trace against the event schema; for traces our
    own ``capture`` produced (``otherData.suite`` set), additionally
    require that every pipeline pass, the served requests, the cache
    counters, and the simulator execution appear.

Both ``summary`` and ``check`` exit 1 with a ``FAIL:`` line on a file
that is not a valid Chrome trace JSON object, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.obs.export import summarize_trace, validate_chrome_trace

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


def _load(path: str) -> Optional[Dict[str, Any]]:
    """The file's JSON object; ``None`` if unreadable or anything else."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _problems(path: str, trace: Optional[Dict[str, Any]]) -> List[str]:
    """Why ``trace``, loaded from ``path``, is no valid Chrome trace."""
    if trace is None:
        return [f"{path} is not a Chrome trace JSON object"]
    return validate_chrome_trace(trace)


def _fail(problems: List[str]) -> int:
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1


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
    from repro.obs.export import write_chrome_trace

    recorder, info = capture_suite(
        suite_name=args.suite,
        dup=args.dup,
        simulate=args.simulate,
    )
    trace_bytes = write_chrome_trace(recorder, args.output, suite=args.suite)
    print(json.dumps(info, indent=1))
    print(f"wrote {args.output} ({trace_bytes} bytes)")
    return 1 if info["failures"] else 0


def cmd_summary(args: argparse.Namespace) -> int:
    trace = _load(args.file)
    problems = _problems(args.file, trace)
    if problems:
        return _fail(problems)
    print(summarize_trace(trace))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    trace = _load(args.file)
    problems = _problems(args.file, trace)
    if not problems and trace.get("otherData", {}).get("suite"):
        problems = _coverage_problems(trace)
    if problems:
        return _fail(problems)
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
        description="Capture, summarize, and check "
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
        "summary", help="digest a Chrome trace capture"
    )
    p_summary.add_argument("file")
    p_summary.set_defaults(func=cmd_summary)

    p_check = sub.add_parser(
        "check", help="validate a Chrome trace (schema + coverage)"
    )
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
