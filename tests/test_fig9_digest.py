"""The per-compile fig9 digest against its golden.

``benchmarks/golden/fig9_compiles.json`` holds one entry per fig9
compile: plain cycles and op counts plus SHA-256s of the ordered trace
records, of each conversion program and of every value's layout.  The
first slice runs in the fast tier, all 458 compiles in the slow one.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.cache
from repro.bench.fig9 import compile_case
from repro.bench import fig9_digest
from repro.bench.fig9_digest import (
    compile_entry,
    digest_suite,
    dumps,
    fig9_cases,
    load_golden,
    mismatches,
    program_digest,
)
from repro.codegen.access import SharedAccesses
from repro.kernels import KERNELS
from repro.program.ir import WarpProgram
from tests.program_decoder import dense_twin

GOLDEN = load_golden()

#: The fast tier's slice: the first kernels' compiles on every platform.
FIRST_SLICE = 40


def _flex_attention_gh200():
    model = KERNELS["flex_attention"]
    case = next(c for c in model.cases if c.name == "s128_i4")
    return compile_case(model, case, "GH200", "linear")


def _instr(compiled, opcode):
    return next(
        i for p in compiled.programs for i in p.instrs
        if i.opcode.value == opcode
    )


@pytest.fixture(scope="module", autouse=True)
def fresh_caches_after_digest():
    """Hashing a program reads its STS/LDS tables, which builds the
    deferred tables held in the shared ``plans`` cache.  Empty the
    caches after this module, so later tests see a compile's tables
    as a compile leaves them: still deferred."""
    yield
    repro.cache.clear()
    assert _instr(_flex_attention_gh200(), "sts").accesses._build is not None


def test_golden_lists_every_fig9_compile_in_order():
    keys = [(e["kernel"], e["case"], e["platform"], e["mode"]) for e in GOLDEN]
    assert keys == list(fig9_cases())
    assert len(keys) == 458


def test_first_slice_matches_golden():
    assert mismatches(digest_suite(FIRST_SLICE), GOLDEN[:FIRST_SLICE]) == []


@pytest.mark.slow
def test_every_compile_matches_golden():
    entries = digest_suite()
    assert len(entries) == len(GOLDEN)
    assert mismatches(entries, GOLDEN) == []


def test_trace_digest_sees_record_order(monkeypatch):
    """Swapping two differing trace records changes only ``trace``:
    cycles and op counts are sums, blind to the order."""
    key = ("flex_attention", "s128_i4", "GH200", "linear")
    want = compile_entry(*key, {})

    def swapped(*args):
        compiled = compile_case(*args)
        records = list(compiled.trace.instructions)
        i = next(
            i for i in range(len(records) - 1) if records[i] != records[i + 1]
        )
        records[i], records[i + 1] = records[i + 1], records[i]
        trace = dataclasses.replace(compiled.trace, instructions=records)
        return dataclasses.replace(compiled, trace=trace)

    monkeypatch.setattr(fig9_digest, "compile_case", swapped)
    got = compile_entry(*key, {})
    assert [f for f in want if got[f] != want[f]] == ["trace"]


def test_mismatches_name_the_compile_and_its_fields():
    want = GOLDEN[:2]
    got = [dict(want[0]), dict(want[1], cycles=-1, trace="0" * 64)]
    first = want[1]
    assert mismatches(got, want) == [
        f"{first['kernel']}/{first['case']}/{first['platform']}/"
        f"{first['mode']}: cycles, trace"
    ]


def test_mismatches_empty_on_equal_entries():
    assert mismatches([dict(e) for e in GOLDEN[:5]], GOLDEN[:5]) == []


def test_dumps_writes_one_compile_per_line():
    text = dumps(GOLDEN[:3])
    lines = text.splitlines()
    assert lines[0] == "[" and lines[-1] == "]" and len(lines) == 5
    assert json.loads(text) == GOLDEN[:3]


def test_program_digest_sees_instruction_and_index_order():
    """Reordering a program's instructions, or the entries of one index
    array, changes its digest though the values stay the same."""
    compiled = _flex_attention_gh200()
    program = next(p for p in compiled.programs if len(p.instrs) > 1)
    flipped = WarpProgram(program.instrs[::-1], program.result, program.label)
    assert program_digest(flipped) != program_digest(program)

    shfl = _instr(compiled, "shfl")
    rolled = dataclasses.replace(shfl, src_lane=np.roll(shfl.src_lane, 1))
    assert program_digest(WarpProgram((rolled,))) != program_digest(
        WarpProgram((shfl,))
    )

    sts = _instr(compiled, "sts")
    acc = sts.accesses
    order = np.roll(np.arange(acc.num_threads), 1)
    swapped = SharedAccesses(acc.base[order], acc.width[order], acc.regs[order])
    assert program_digest(
        WarpProgram((dataclasses.replace(sts, accesses=swapped),))
    ) != program_digest(WarpProgram((sts,)))


def test_program_digest_hashes_values_not_storage():
    """A program whose STS/LDS tables are stored dense at int64 (the
    storage before int32 and the one stored row) digests the same, and
    rolling a table's thread axis still changes the digest."""
    compiled = _flex_attention_gh200()
    shared = [
        (program, i)
        for program in compiled.programs
        for i, instr in enumerate(program.instrs)
        if instr.opcode.value in ("sts", "lds")
    ]
    assert any(
        p.instrs[i].accesses.regs.strides[0] == 0 for p, i in shared
    )
    for program, i in shared:
        instr = program.instrs[i]
        wide = dense_twin(instr.accesses, np.int64)
        assert wide.base.dtype == np.int64
        instrs = list(program.instrs)
        instrs[i] = dataclasses.replace(instr, accesses=wide)
        rebuilt = WarpProgram(tuple(instrs), program.result, program.label)
        assert program_digest(rebuilt) == program_digest(program)

    program, i = shared[0]
    acc = program.instrs[i].accesses
    order = np.roll(np.arange(acc.num_threads), 1)
    rolled = dense_twin(acc, np.int64)
    for name in ("base", "width", "regs"):
        setattr(rolled, name, getattr(rolled, name)[order])
    assert program_digest(
        WarpProgram((dataclasses.replace(program.instrs[i], accesses=rolled),))
    ) != program_digest(WarpProgram((program.instrs[i],)))
