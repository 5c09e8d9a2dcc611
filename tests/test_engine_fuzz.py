"""Engine fuzzing: random kernel graphs compile and preserve numerics.

Generates random straight-line programs over the builder API —
loads, elementwise ops, shape operations, reductions, broadcasts,
dots — compiles them in linear mode, and checks the compiled graph
computes exactly what the source graph computes under the NumPy
interpreter.  Legacy mode must either compile to the same numerics or
fail with a LegacyUnsupportedError (never crash).
"""

import random

import numpy as np
import pytest

from repro.core.errors import LegacyUnsupportedError
from repro.engine import KernelBuilder, compile
from repro.engine.ir import OpKind
from repro.hardware import GH200, RTX4090
from repro.interp import execute_graph
from repro.mxfp import F16, F32


def random_program(rng: random.Random, kb: KernelBuilder):
    """Grow a random program; returns the number of LOAD ops."""
    shapes = [(32, 32), (32, 64), (64, 32)]
    values = []
    loads = 0

    def fresh(shape):
        nonlocal loads
        loads += 1
        return kb.load(shape, F32)

    values.append(fresh(rng.choice(shapes)))
    for _ in range(rng.randrange(3, 9)):
        choice = rng.random()
        v = rng.choice(values)
        if choice < 0.25:
            values.append(fresh(rng.choice(shapes)))
        elif choice < 0.45:
            peer = next(
                (u for u in values if u.shape == v.shape and u is not v),
                None,
            )
            if peer is None:
                values.append(kb.elementwise(v, name="exp"))
            else:
                values.append(
                    kb.elementwise(v, peer, name=rng.choice(
                        ["add", "sub", "mul"]
                    ))
                )
        elif choice < 0.60:
            values.append(kb.trans(v))
        elif choice < 0.72:
            total = v.shape[0] * v.shape[1]
            values.append(kb.reshape(v, (total // 32, 32)))
        elif choice < 0.84:
            reduced = kb.reduce(v, axis=1, op="sum")
            grown = kb.broadcast(
                kb.expand_dims(reduced, 1), v.shape
            )
            values.append(kb.elementwise(v, grown, name="sub"))
        else:
            m, k = v.shape
            other = fresh((k, 32))
            values.append(kb.dot(v, other))
    for v in values[-2:]:
        kb.store(v)
    return loads


def inputs_for(graph, rng):
    out = []
    for op in graph.ops:
        if op.kind == OpKind.LOAD:
            out.append(
                rng.standard_normal(op.output.shape) * 0.25
            )
    return out


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_program_numerics(seed):
    rng = random.Random(seed)
    kb_ref = KernelBuilder()
    random_program(random.Random(seed), kb_ref)
    kb = KernelBuilder()
    random_program(random.Random(seed), kb)

    np_rng = np.random.default_rng(seed)
    inputs = inputs_for(kb_ref.graph, np_rng)
    reference = execute_graph(kb_ref.graph, inputs).stores

    compiled = compile(kb.graph, RTX4090, "linear")
    assert compiled.ok, compiled.error
    result = execute_graph(compiled, inputs).stores
    assert len(result) == len(reference)
    for want, got in zip(reference, result):
        assert np.allclose(want, got), seed


@pytest.mark.parametrize("seed", range(15))
def test_fuzzed_program_legacy_never_crashes(seed):
    kb = KernelBuilder()
    random_program(random.Random(seed), kb)
    compiled = compile(kb.graph, GH200, "legacy")
    # ok or a clean behavioural failure — never an exception.
    assert compiled.ok or "legacy" in compiled.error


@pytest.mark.parametrize("seed", range(10))
def test_fuzzed_program_linear_cost_sane(seed):
    kb = KernelBuilder()
    random_program(random.Random(seed), kb)
    compiled = compile(kb.graph, GH200, "linear")
    assert compiled.ok
    assert 0 < compiled.cycles() < 10_000_000
