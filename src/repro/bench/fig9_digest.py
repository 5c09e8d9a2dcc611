"""A per-compile digest of the fig9 suite, checked against a golden.

One entry per fig9 compile (every kernel case on every platform it
supports, in both engine modes): success, the error class, simulated
cycles and the Table 6 op counts in plain form, plus three SHA-256s:

- ``trace``: the ordered priced records (every ``Instruction`` field);
- ``programs``: one per conversion program, over its result space,
  label, opcodes, scalar fields and the raw bytes of its index arrays;
- ``layouts``: every graph value's ``canonical_key()`` in value order.

So a change that moves cycles between instruction kinds, picks
another layout of the same price or emits another program of the same
price fails the check of the compile it touched.

Run:  python -m repro.bench.fig9_digest [--check | --update]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.bench.fig9 import compile_case
from repro.codegen.access import SharedAccesses
from repro.core.errors import LegacyUnsupportedError
from repro.core.layout import LinearLayout
from repro.kernels import KERNELS
from repro.program.ir import instr_fields

GOLDEN_PATH = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "..",
    "benchmarks", "golden", "fig9_compiles.json",
))
MODES = ("linear", "legacy")


def fig9_cases() -> Iterator[Tuple[str, str, str, str]]:
    """Every fig9 ``(kernel, case, platform, mode)``, in registry order."""
    for name in sorted(KERNELS):
        model = KERNELS[name]
        for case in model.cases:
            for platform in model.platforms:
                for mode in MODES:
                    yield name, case.name, platform, mode


def _feed(h, value) -> None:
    """Hash one operand with a type tag, so no two encodings collide."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, SharedAccesses):
        h.update(b"s")
        for arr in (value.base, value.width, value.regs):
            _feed(h, arr)
    elif isinstance(value, LinearLayout):
        h.update(f"l{value.canonical_key()!r}".encode())
    elif isinstance(value, tuple):
        h.update(f"t{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(f"v{value!r};".encode())


def program_digest(program) -> str:
    """SHA-256 of one warp program's result, label and instructions."""
    h = hashlib.sha256()
    _feed(h, (program.result, program.label, len(program.instrs)))
    for instr in program.instrs:
        h.update(f"o{instr.opcode.value}".encode())
        for name, value in instr_fields(instr).items():
            h.update(f"f{name}".encode())
            _feed(h, value)
    return h.hexdigest()


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def compile_entry(
    kernel: str, case: str, platform: str, mode: str,
    programs: Dict[int, Tuple[object, str]],
) -> Dict[str, object]:
    """The digest entry of one fig9 compile.

    ``programs`` memoizes program digests by identity across compiles
    (cached plans share their program objects); it keeps each program
    alive so an ``id`` is never reused while the memo lives.
    """
    model = KERNELS[kernel]
    kcase = next(c for c in model.cases if c.name == case)
    compiled = compile_case(model, kcase, platform, mode)
    digests: List[str] = []
    for program in compiled.programs:
        hit = programs.get(id(program))
        if hit is None:
            hit = programs[id(program)] = (program, program_digest(program))
        digests.append(hit[1])
    return dict(
        kernel=kernel, case=case, platform=platform, mode=mode,
        ok=compiled.ok,
        # The engine turns only this error into a not-ok kernel.
        error=None if compiled.ok else LegacyUnsupportedError.__name__,
        cycles=compiled.cycles() if compiled.ok else None,
        op_counts=compiled.op_counts() if compiled.ok else None,
        trace=_sha(
            (i.kind.value, i.vector_bits, i.count, i.wavefronts, i.note,
             i.dependent)
            for i in compiled.trace.instructions
        ),
        programs=digests,
        layouts=_sha(
            None if v.layout is None else v.layout.canonical_key()
            for v in compiled.graph.values
        ),
    )


def digest_suite(limit: Optional[int] = None) -> List[Dict[str, object]]:
    """The entries of the first ``limit`` fig9 compiles (all if None)."""
    programs: Dict[int, Tuple[object, str]] = {}
    entries = []
    for i, key in enumerate(fig9_cases()):
        if limit is not None and i >= limit:
            break
        entries.append(compile_entry(*key, programs))
    return entries


def dumps(entries: List[Dict[str, object]]) -> str:
    """The golden file's text: one compile per line."""
    lines = ",\n".join(json.dumps(e, sort_keys=True) for e in entries)
    return f"[\n{lines}\n]\n"


def load_golden() -> List[Dict[str, object]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def mismatches(
    entries: List[Dict[str, object]], golden: List[Dict[str, object]]
) -> List[str]:
    """One line per compile whose entry differs from its golden."""
    out = []
    for got, want in zip(entries, golden):
        if got != want:
            fields = sorted(
                k for k in set(got) | set(want) if got.get(k) != want.get(k)
            )
            out.append(
                f"{got['kernel']}/{got['case']}/{got['platform']}/"
                f"{got['mode']}: {', '.join(fields)}"
            )
    return out


def main(argv: List[str]) -> int:
    entries = digest_suite()
    if "--update" in argv:
        with open(GOLDEN_PATH, "w") as fh:
            fh.write(dumps(entries))
        print(f"wrote {len(entries)} compiles to {GOLDEN_PATH}")
        return 0
    if "--check" in argv:
        golden = load_golden()
        diffs = mismatches(entries, golden)
        if len(entries) != len(golden):
            diffs.append(f"{len(entries)} compiles, golden has {len(golden)}")
        if diffs:
            print("FIG9 COMPILE DIGEST MISMATCH vs golden:")
            print("\n".join(diffs))
            return 1
        print(f"{len(entries)} compile digests match {GOLDEN_PATH}")
        return 0
    sys.stdout.write(dumps(entries))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
