"""Property tests of the optimality claim (Lemma 9.6).

For random pairs of distributed layouts, the optimal swizzled staging
must never produce more measured bank-conflict wavefronts than either
the padding heuristic or raw staging — measured on the actual per-lane
addresses, not the analytic model.
"""

import random

import pytest

from repro.codegen.conversion import plan_conversion
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.gpusim.memory import SharedMemory
from repro.gpusim.opcost import price_program
from repro.hardware import GH200
from repro.program import Opcode

SHARED = (Opcode.STS, Opcode.LDS)


def random_layout(rng, bits=10, shape=None):
    units = [1 << i for i in range(bits)]
    rng.shuffle(units)
    if shape is None:
        shape = {"dim0": 32, "dim1": 32}

    def coords(flat):
        out = []
        rem = flat
        for size in reversed(list(shape.values())):
            out.append(rem % size)
            rem //= size
        out.reverse()
        return tuple(out)

    return LinearLayout(
        {
            REGISTER: [coords(x) for x in units[:3]],
            LANE: [coords(x) for x in units[3:8]],
            WARP: [coords(x) for x in units[8:]],
        },
        dict(shape),
    )


def total_wavefronts(plan, spec, elem_bytes):
    memory = SharedMemory(spec, elem_bytes)
    total = 0
    for instr in plan.program:
        if instr.opcode not in SHARED:
            continue
        lanes = instr.accesses.to_tuples()[: spec.warp_size]
        max_accesses = max((len(a) for a in lanes), default=0)
        for k in range(max_accesses):
            requests = [
                (a[k][0], len(a[k][1])) for a in lanes if k < len(a)
            ]
            if requests:
                total += memory.wavefronts(requests)
    return total


@pytest.mark.parametrize("seed", range(10))
def test_optimal_never_loses_on_cycles(seed):
    rng = random.Random(1000 + seed)
    src = random_layout(rng)
    dst = random_layout(rng)
    kwargs = dict(spec=GH200, allow_shuffle=False,
                  dedupe_broadcast=False)
    optimal = plan_conversion(src, dst, 16, swizzle_mode="optimal",
                              **kwargs)
    padded = plan_conversion(src, dst, 16, swizzle_mode="padded",
                             **kwargs)
    raw = plan_conversion(src, dst, 16, swizzle_mode="none", **kwargs)
    opt_cycles = price_program(optimal.program, GH200).cycles()
    assert opt_cycles <= price_program(padded.program, GH200).cycles() * 1.01
    assert opt_cycles <= price_program(raw.program, GH200).cycles() * 1.01


@pytest.mark.parametrize("seed", range(10))
def test_claimed_conflict_freedom_is_real(seed):
    """When the algorithm claims conflict-freeness, warp 0's measured
    wavefronts per access never exceed the 128-byte transaction split
    factor."""
    from repro.codegen.swizzle import optimal_swizzled_layout

    rng = random.Random(2000 + seed)
    src = random_layout(rng)
    dst = random_layout(rng)
    swizzle = optimal_swizzled_layout(src, dst, 16)
    if not swizzle.conflict_free:
        pytest.skip("conflicts declared unavoidable for this pair")
    plan = plan_conversion(
        src, dst, 16, spec=GH200, allow_shuffle=False,
        dedupe_broadcast=False,
    )
    n = max(1, swizzle.vec_elems * 2 // 4)
    memory = SharedMemory(GH200, 2)
    for instr in plan.program:
        if instr.opcode not in SHARED:
            continue
        if getattr(instr, "use_ldmatrix", False) or getattr(
            instr, "use_stmatrix", False
        ):
            continue
        lanes = instr.accesses.to_tuples()[:32]
        max_accesses = max((len(a) for a in lanes), default=0)
        for k in range(max_accesses):
            requests = [
                (a[k][0], len(a[k][1])) for a in lanes if k < len(a)
            ]
            if requests:
                assert memory.wavefronts(requests) <= n
