"""Result metadata and the determinism gate.

Counts the program computes (cache misses, generated instructions,
simulated cycles, conversion counts, distinct service keys) must
repeat exactly.  Each run compares its counts with the first run of the
same workload recorded for the same source tree, whatever its seed,
in ``.bench_build/perfbench/state.json`` inside the checkout.  The
state also keeps the untraced pass times a traced run needs for its
overhead ratio.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
from typing import Dict, List, Optional

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
STATE_PATH = os.path.join(OUT_DIR, "state.json")
_HASHED = ("src", "perfbench")


def source_digest() -> str:
    """sha256 over the Python sources of the program and the benchmark."""
    h = hashlib.sha256()
    for top in _HASHED:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def metadata(seed: int, digest: str) -> Dict[str, object]:
    """What every result is stamped with."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "source_sha256": digest,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class State:
    """The per-checkout record of earlier runs of one source tree."""

    def __init__(self, digest: str, workload: str):
        try:
            with open(STATE_PATH) as fh:
                self._all = json.load(fh)
        except (OSError, ValueError):
            self._all = {}
        tree = self._all.setdefault(digest, {})
        self._mine = tree.setdefault(workload, {"walls": []})

    def check_counts(self, counts: Dict[str, float]) -> List[str]:
        """Mismatches against the counts of the first recorded run."""
        seen = self._mine.setdefault("counts", counts)
        return [
            f"{name}: {counts.get(name)!r} != recorded {seen.get(name)!r}"
            for name in sorted(set(seen) | set(counts))
            if seen.get(name) != counts.get(name)
        ]

    def untraced_walls(self) -> List[float]:
        return list(self._mine["walls"])

    def add_untraced_wall(self, seconds: float) -> None:
        self._mine["walls"] = (self._mine["walls"] + [seconds])[-50:]

    def save(self) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        tmp = f"{STATE_PATH}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self._all, fh, indent=1, sort_keys=True)
        os.replace(tmp, STATE_PATH)
