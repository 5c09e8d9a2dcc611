"""What a compile allocates and what it keeps.

The IR has no back-edges (a value does not point at the op producing
it), so a dropped compile, a cleared cache and a closed service free
by reference counting alone: with the cycle collector off, a
collection afterwards finds nothing.  Priced instruction records are
shared values, one per distinct field tuple, and every compile of a
mode runs one shared pipeline whose passes keep no state.
"""

import gc
import json
import os
import subprocess
import sys

import pytest

from repro import cache
from repro.engine import PassManager
from repro.hardware import instructions as records
from repro.hardware.instructions import Instruction, InstructionKind, instruction
from repro.serve import CompileRequest, CompileService

from tests.test_pipeline import FIG9_SUITE, _compile_fig9

#: The first fig9 compiles: both modes on RTX4090, GH200 and MI250.
FIRST_SLICE = FIG9_SUITE[:36]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def collector_off():
    """The cycle collector disabled, after collecting what ran before."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _compile_and_drop(suite):
    for entry in suite:
        compiled = _compile_fig9(*entry)
        assert compiled.ok
        del compiled


def _request(model, case, platform, mode):
    return CompileRequest(model.name, case.name, platform, mode)


def _assert_no_cyclic_garbage(suite):
    """Cold compiles, warm compiles, a cleared cache and a closed
    service each leave nothing for the cycle collector."""
    cache.clear()
    gc.collect()  # whatever earlier tests cached
    _compile_and_drop(suite)  # from cleared caches
    assert gc.collect() == 0
    _compile_and_drop(suite)  # from warm caches
    assert gc.collect() == 0
    cache.clear()  # holding what these compiles cached
    assert gc.collect() == 0
    service = CompileService(workers=2)
    results = service.compile_batch([_request(*entry) for entry in suite])
    assert all(compiled.ok for compiled in results)
    service.report()
    service.close()
    del service, results
    assert gc.collect() == 0


class TestNoCyclicGarbage:
    def test_first_fig9_slice(self, collector_off):
        _assert_no_cyclic_garbage(FIRST_SLICE)

    @pytest.mark.slow
    def test_every_fig9_compile(self, collector_off):
        _assert_no_cyclic_garbage(FIG9_SUITE)


class TestSharedRecords:
    def test_two_compiles_hold_the_same_records(self):
        entry = FIRST_SLICE[0]
        first = _compile_fig9(*entry).trace.instructions
        second = _compile_fig9(*entry).trace.instructions
        assert first and len(first) == len(second)
        assert all(a is b for a, b in zip(first, second))

    def test_outputs_equal_with_caching_off(self):
        """``summary()`` (cycles, op counts, programs) of the first fig9
        compiles, both modes on every platform, is the same in a
        ``REPRO_CACHE=0`` process, where every record is built afresh."""
        script = (
            "import json\n"
            "from repro.hardware import instructions\n"
            "from tests.test_compile_allocation import FIRST_SLICE\n"
            "from tests.test_pipeline import _compile_fig9\n"
            "kernels = [_compile_fig9(*e) for e in FIRST_SLICE[:12]]\n"
            "assert not instructions._RECORDS\n"
            "print(json.dumps([k.summary() for k in kernels]))\n"
        )
        env = dict(os.environ, REPRO_CACHE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
        )
        assert out.returncode == 0, out.stderr
        uncached = json.loads(out.stdout)
        cached = [_compile_fig9(*entry).summary() for entry in FIRST_SLICE[:12]]
        assert json.loads(json.dumps(cached)) == uncached

    def test_disabled_thread_builds_fresh_records(self):
        shared = instruction(InstructionKind.ALU, count=3)
        with cache.disabled():
            fresh = instruction(InstructionKind.ALU, count=3)
        assert fresh == shared and fresh is not shared
        assert instruction(InstructionKind.ALU, count=3) is shared

    def test_table_stays_bounded(self):
        bound = records.RECORD_TABLE_BOUND
        fields = [
            (InstructionKind.SHUFFLE, 32, count, 1, "bounded", False)
            for count in range(1, bound + bound // 2)
        ]
        for args in fields:
            record = instruction(*args)
            assert record == Instruction(*args)
            assert instruction(*args) is record
            assert len(records._RECORDS) <= bound
        for args in fields:  # dropped or kept, every record is its value
            assert instruction(*args) == Instruction(*args)


class TestSharedPipelines:
    def test_compiles_of_a_mode_share_one_stateless_pipeline(self, monkeypatch):
        managers = []
        real = PassManager.run

        def state(manager):
            """Every pass's attributes, and those of its policies."""
            objects = list(manager.passes)
            for p in manager.passes:
                objects += [v for v in vars(p).values() if hasattr(v, "__dict__")]
            return [(obj, dict(vars(obj))) for obj in objects]

        def spy(manager, ctx):
            before = state(manager)
            out = real(manager, ctx)
            assert state(manager) == before
            managers.append(manager)
            return out

        monkeypatch.setattr(PassManager, "run", spy)
        linear = [e for e in FIRST_SLICE if e[3] == "linear"][:3]
        legacy = [e for e in FIRST_SLICE if e[3] == "legacy"][:3]
        for entry in linear + legacy:
            assert _compile_fig9(*entry).ok
        assert all(m is managers[0] for m in managers[:3])
        assert all(m is managers[3] for m in managers[3:])
        assert managers[0] is not managers[3]
