"""Shared helpers for the benchmark entry points."""

import json
import time

import pytest


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark.

    Experiments are deterministic simulations; repeating them only
    re-measures Python overhead, so a single round suffices.
    """
    return benchmark.pedantic(
        fn, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0
    )


def utc_timestamp() -> str:
    """The current UTC time as a record's ``timestamp`` field."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def append_record(path, entry: dict) -> None:
    """Append one entry to the JSON history list at ``path``."""
    history = json.loads(path.read_text()) if path.exists() else []
    history.append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
