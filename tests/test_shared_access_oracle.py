"""Differential tests of the array-native shared-access builder.

:func:`repro.codegen.conversion._build_accesses` builds every
thread's vectorized shared-memory accesses from whole-range F2 tables.
Its tuple view must equal the per-element reference
(:mod:`tests.shared_access_reference`) on random distributed layouts:
warp 32 and warp 64 (MI250), 1-8 warps, broadcast (zero) columns on
every hardware dim, broadcast dedupe on and off, with and without the
Vec-bits-fastest register order, and under every staging mode — the
optimal swizzle, a pinned memory layout, legacy padding and raw rows.
The closed-form vector grouping is also checked directly, on arbitrary
offset rows, and the dense wavefront counter against the scalar
per-bank reference (:mod:`tests.bank_reference`).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import cache
from repro.codegen import conversion
from repro.codegen.access import SharedAccesses
from repro.codegen.conversion import (
    _build_accesses,
    _group_contiguous,
    _swizzled_offsets,
    plan_conversion,
)
from repro.codegen.views import DistributedView
from repro.codegen.swizzle import (
    memory_layout_from_bases,
    optimal_swizzled_layout,
)
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.hardware import GH200, MI250, RTX4090
from repro.gpusim.memory import access_wavefronts, instruction_wavefronts
from repro.program.interp import _compile_shared
from repro.program.ir import Sts
from tests.bank_reference import wavefronts as reference_wavefronts
from tests.shared_access_reference import (
    group_contiguous as reference_group_contiguous,
    padded_offset_of_flat,
    shared_accesses as reference_accesses,
    swizzled_offset_of_flat,
)


def _coords(flat, shape):
    """Row-major coordinates of a flat position (last dim fastest)."""
    out = []
    for size in reversed(list(shape.values())):
        out.append(flat % size)
        flat //= size
    return tuple(reversed(out))


@st.composite
def geometries(draw, specs=(RTX4090, GH200, MI250)):
    """(spec, warp bits, total bits d, shape) of a conversion."""
    spec = draw(st.sampled_from(specs))
    lane_bits = spec.warp_size.bit_length() - 1
    warp_bits = draw(st.integers(0, 3))
    d = draw(st.integers(lane_bits + warp_bits - 2, lane_bits + warp_bits + 3))
    rows = draw(st.integers(0, d))
    shape = {"dim0": 1 << rows, "dim1": 1 << (d - rows)}
    return spec, warp_bits, d, shape


@st.composite
def distributed_layouts(draw, lane_bits, warp_bits, d, shape):
    """A random Definition 4.10 layout, broadcast columns included."""
    zero_lanes = draw(st.integers(0, min(2, lane_bits)))
    zero_warps = draw(st.integers(0, warp_bits))
    zero_regs = draw(st.integers(0, 1))
    lane_nz = lane_bits - zero_lanes
    warp_nz = warp_bits - zero_warps
    if lane_nz + warp_nz > d:
        lane_nz = min(lane_nz, d)
        warp_nz = d - lane_nz
    reg_nz = d - lane_nz - warp_nz
    units = draw(st.permutations([1 << i for i in range(d)]))
    columns = {
        REGISTER: list(units[:reg_nz]) + [0] * zero_regs,
        LANE: list(units[reg_nz: reg_nz + lane_nz])
        + [0] * (lane_bits - lane_nz),
        WARP: list(units[reg_nz + lane_nz:])
        + [0] * (warp_bits - warp_nz),
    }
    bases = {}
    for dim, cols in columns.items():
        order = draw(st.permutations(cols))
        bases[dim] = [_coords(c, shape) for c in order]
    return LinearLayout(bases, dict(shape))


@st.composite
def memory_layouts(draw, d, shape):
    """A random invertible offset -> logical staging layout."""
    units = draw(st.permutations([1 << i for i in range(d)]))
    bases = []
    for i, unit in enumerate(units):
        mix = draw(st.lists(st.sampled_from(units[:i]), max_size=2)) if i else []
        for m in mix:
            unit ^= m
        bases.append(unit)
    return memory_layout_from_bases(bases, shape)


@st.composite
def conversion_cases(draw):
    spec, warp_bits, d, shape = draw(geometries())
    lane_bits = spec.warp_size.bit_length() - 1
    src = draw(distributed_layouts(lane_bits, warp_bits, d, shape))
    dst = draw(distributed_layouts(lane_bits, warp_bits, d, shape))
    return spec, src, dst, d, shape


def _draw_offsets(data, d, shape):
    """An identity, padded or pinned-layout offset table."""
    staging = data.draw(st.sampled_from(["identity", "padded", "pinned"]))
    if staging == "identity":
        return np.arange(1 << d, dtype=np.int64)
    if staging == "padded":
        row = data.draw(st.sampled_from([8, 16, 32, 64]))
        pad = data.draw(st.sampled_from([1, 2, 4, 8]))
        flat = np.arange(1 << d, dtype=np.int64)
        return flat + (flat // row) * pad
    return _swizzled_offsets(data.draw(memory_layouts(d, shape)))


def _is_deferred(acc):
    """Whether ``acc`` still holds only its head rows."""
    return acc._build is not None


@settings(max_examples=80)
@given(case=conversion_cases(), data=st.data())
def test_builder_matches_reference(case, data):
    """Every option combination, on one table-driven offset map."""
    spec, src, _, d, shape = case
    layout = src
    offsets = _draw_offsets(data, d, shape)
    reg_images = [x for x in layout.basis_images_flat(REGISTER) if x]
    vec_basis = data.draw(
        st.one_of(
            st.none(),
            st.lists(st.sampled_from(reg_images), unique=True, max_size=3)
            if reg_images
            else st.none(),
            # A basis outside the register span: no reordering.
            st.just([layout.basis_images_flat(LANE)[0] or 1]),
        )
    )
    kwargs = dict(
        num_warps=max(1, layout.in_dim_size(WARP))
        * data.draw(st.sampled_from([1, 2])),
        warp_size=spec.warp_size,
        max_vec_elems=data.draw(st.sampled_from([1, 2, 4, 8, 16, 3, 6])),
        dedupe_broadcast=data.draw(st.booleans()),
        vec_basis=vec_basis,
        sort_by_offset=data.draw(st.booleans()),
    )
    max_vec = kwargs["max_vec_elems"]
    if max_vec & (max_vec - 1):
        # Grouping contract: vector widths are powers of two.
        with pytest.raises(ValueError):
            _build_accesses(layout, offsets, **kwargs)
        return
    got = _build_accesses(layout, offsets, **kwargs)
    warp0 = reference_accesses(
        layout, offsets.item, **dict(kwargs, num_warps=1)
    )
    # Warp 0's rows are the reference's, served without a full build.
    assert got.leading(spec.warp_size).to_tuples() == warp0
    assert _is_deferred(got) == (kwargs["num_warps"] > 1)
    expected = reference_accesses(layout, offsets.item, **kwargs)
    assert got.to_tuples() == expected
    assert not _is_deferred(got)
    assert got == SharedAccesses.from_tuples(expected)
    assert got.leading(spec.warp_size).to_tuples() == warp0


@settings(max_examples=40)
@given(
    geometry=geometries(),
    data=st.data(),
)
def test_swizzled_offsets_match_inverse_layout(geometry, data):
    """The offset table is ``memory_layout.invert()`` element by element."""
    _, _, d, shape = geometry
    memory = data.draw(memory_layouts(d, shape))
    table = _swizzled_offsets(memory)
    reference = swizzled_offset_of_flat(memory)
    assert table.tolist() == [reference(p) for p in range(1 << d)]


@settings(max_examples=40)
@given(
    case=conversion_cases(),
    mode=st.sampled_from(["optimal", "pinned", "padded", "none"]),
    dedupe=st.booleans(),
    elem_bits=st.sampled_from([8, 16, 32]),
    data=st.data(),
)
def test_planner_accesses_match_reference(
    case, mode, dedupe, elem_bits, data
):
    """Through ``plan_conversion``: the builder on the planner's exact inputs.

    Every ``_shared_accesses`` call the planner makes is checked
    against the reference on the same arguments, and the planner's
    offset tables against the per-position staging maps.
    """
    spec, src, dst, d, shape = case
    calls = []
    real = conversion._shared_accesses

    def checked(layout, staging, offsets_of, *args, **kwargs):
        got = real(layout, staging, offsets_of, *args, **kwargs)
        offsets = offsets_of()
        expected = reference_accesses(
            layout, lambda p: int(offsets[p]), *args, **kwargs
        )
        assert got.to_tuples() == expected
        calls.append(offsets)
        return got

    memory = None
    if mode == "pinned":
        memory = data.draw(memory_layouts(d, shape))
    # Caching off: a repeated key must still reach the builder.
    with pytest.MonkeyPatch.context() as mp, cache.disabled():
        mp.setattr(conversion, "_shared_accesses", checked)
        plan = plan_conversion(
            src,
            dst,
            elem_bits,
            spec=spec,
            allow_shuffle=False,
            swizzle_mode="optimal" if mode == "pinned" else mode,
            dedupe_broadcast=dedupe,
            memory_layout=memory,
        )
    if plan.kind != "shared":
        return
    assert calls
    elem_bytes = elem_bits // 8
    if mode == "none":
        staging = [lambda p: p]
    elif mode == "padded":
        staging = [
            padded_offset_of_flat(
                spec.bank_row_bytes // elem_bytes, max(1, 128 // elem_bits)
            )
        ]
    elif mode == "pinned":
        staging = [swizzled_offset_of_flat(memory)]
    else:
        candidates = [
            optimal_swizzled_layout(
                plan.src, plan.dst, elem_bits,
                bank_row_bytes=spec.bank_row_bytes,
                max_vector_bits=spec.max_vector_bits,
            ),
            conversion._try_matrix_staging(
                plan.src, plan.dst, DistributedView(plan.dst), elem_bits, spec
            ),
        ]
        staging = [
            swizzled_offset_of_flat(c.memory_layout)
            for c in candidates
            if c is not None
        ]
    expected = [[f(p) for p in range(1 << d)] for f in staging]
    for offsets in calls:
        assert offsets.tolist() in expected


@st.composite
def offset_rows(draw, n):
    """One row of ``n`` offsets: runs at any start, repeats, jumps."""
    row = []
    while len(row) < n:
        if row and draw(st.booleans()):
            # A repeated offset, as legacy staging leaves replicas.
            row.extend([row[-1]] * draw(st.integers(1, 3)))
        else:
            start = draw(st.integers(-(1 << 40), 1 << 40))
            if draw(st.booleans()):
                start = start & -64  # aligned, so wide vectors fit
            row.extend(range(start, start + draw(st.integers(1, 80))))
    return row[:n]


@settings(max_examples=300)
@given(
    max_vec=st.sampled_from([1, 2, 4, 8, 16, 32]),
    n=st.integers(1, 96),
    threads=st.integers(1, 5),
    data=st.data(),
)
def test_group_contiguous_matches_reference(max_vec, n, threads, data):
    """Closed-form grouping == the greedy walk, row by row."""
    shape = data.draw(
        st.sampled_from(["blocks", "lockstep", "chained", "free"])
    )
    if shape == "blocks":
        # Whole aligned blocks only: the uniform-grid fast path.
        n = max_vec * (1 + n // max_vec)
        blocks = st.lists(
            st.integers(-(1 << 20), 1 << 20),
            min_size=n // max_vec, max_size=n // max_vec,
        )
        rows = [
            [b * max_vec + i for b in data.draw(blocks) for i in range(max_vec)]
            for _ in range(threads)
        ]
    elif shape == "lockstep":
        # One row shifted by aligned amounts: every row starts its
        # vectors at the same positions.
        row = data.draw(offset_rows(n))
        shifts = data.draw(
            st.lists(
                st.integers(-(1 << 20), 1 << 20),
                min_size=threads, max_size=threads,
            )
        )
        rows = [[x + 64 * shift for x in row] for shift in shifts]
    elif shape == "chained":
        # Each row continues the previous one: runs must still end
        # with their row.
        chain = data.draw(offset_rows(n * threads))
        rows = [chain[t * n: (t + 1) * n] for t in range(threads)]
    else:
        rows = [data.draw(offset_rows(n)) for _ in range(threads)]
    offsets = np.array(rows, dtype=np.int64)
    start, width = _group_contiguous(offsets, max_vec)
    expected = [
        reference_group_contiguous(list(zip(row, range(n))), max_vec)
        for row in rows
    ]
    assert start.shape == width.shape
    assert start.shape[1] == max(len(groups) for groups in expected)
    for t, groups in enumerate(expected):
        k = len(groups)
        got = [
            (rows[t][s], tuple(range(s, s + w)))
            for s, w in zip(start[t, :k].tolist(), width[t, :k].tolist())
        ]
        assert got == groups
        assert (width[t, k:] == 0).all() and (start[t, k:] == n - 1).all()


@pytest.mark.parametrize("max_vec", [1, 2, 4, 8, 16, 32])
def test_group_contiguous_single_column(max_vec):
    start, width = _group_contiguous(
        np.array([[5], [0], [-3], [64]], dtype=np.int64), max_vec
    )
    assert start.tolist() == [[0]] * 4 and width.tolist() == [[1]] * 4


@pytest.mark.parametrize("max_vec", [0, 3, 6, 12, -4])
def test_group_contiguous_rejects_non_power_of_two(max_vec):
    with pytest.raises(ValueError):
        _group_contiguous(np.arange(8, dtype=np.int64)[None], max_vec)


@settings(max_examples=60)
@given(
    spec=st.sampled_from([RTX4090, MI250]),
    elem_bytes=st.sampled_from([1, 2, 4, 8, 16]),
    groups=st.lists(
        st.lists(
            st.tuples(st.integers(0, 4096), st.integers(1, 16)), max_size=64
        ),
        min_size=1,
        max_size=6,
    ),
    idle=st.integers(0, 4096),
)
def test_bank_wavefronts_match_reference(spec, elem_bytes, groups, idle):
    """Many warp instructions priced at once == one at a time.  Rows
    are ragged: a lane past a row's requests moves nothing, wherever
    its offset points."""
    lanes = max(len(reqs) for reqs in groups)
    offset = np.full((len(groups), lanes), idle, dtype=np.int64)
    count = np.zeros((len(groups), lanes), dtype=np.int64)
    for row, reqs in enumerate(groups):
        for lane, (o, n) in enumerate(reqs):
            offset[row, lane], count[row, lane] = o, n
    got = instruction_wavefronts(spec, elem_bytes, offset, count)
    assert got.tolist() == [
        reference_wavefronts(spec, elem_bytes, reqs) for reqs in groups
    ]


def _random_tuples(rng, threads, max_slots, max_width, full):
    """A random access table's tuple view: per thread up to
    ``max_slots`` accesses of 1 to ``max_width`` elements at random
    offsets, or, when ``full``, every thread ``max_slots`` accesses of
    ``max_width`` elements (the full-width case)."""
    tuples = []
    for _ in range(threads):
        if full:
            widths = [max_width] * max_slots
        else:
            k = int(rng.integers(0, max_slots + 1))
            widths = rng.integers(1, max_width + 1, size=k).tolist()
        tuples.append(
            tuple(
                (int(rng.integers(0, 4096)), tuple(range(int(w))))
                for w in widths
            )
        )
    return tuples


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from([RTX4090, MI250]),
    num_warps=st.integers(1, 8),
    elem_bytes=st.sampled_from([1, 2, 4, 8, 16]),
    fill=st.floats(0.0, 1.25),
    max_slots=st.integers(1, 4),
    max_width=st.sampled_from([1, 2, 4, 8, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_access_wavefronts_match_reference(
    spec, num_warps, elem_bytes, fill, max_slots, max_width, seed
):
    """Every (warp, slot) of a random access table costs what the
    scalar reference counts for its lanes.  Tables may hold fewer or
    more threads than ``num_warps`` warps, threads hold ragged lists of
    ragged widths, and at 16 elements of 16 bytes a lane's vector spans
    two 128-byte transactions."""
    ws = spec.warp_size
    tuples = _random_tuples(
        np.random.default_rng(seed),
        int(fill * num_warps * ws),
        max_slots,
        max_width,
        full=False,
    )
    acc = SharedAccesses.from_tuples(tuples)
    got = access_wavefronts(acc, spec, elem_bytes, num_warps)
    lanes = tuples[: num_warps * ws]
    slots = max((len(a) for a in lanes), default=0)
    expected = [
        [
            reference_wavefronts(
                spec,
                elem_bytes,
                [
                    (a[k][0], len(a[k][1]))
                    for a in lanes[w * ws : (w + 1) * ws]
                    if k < len(a)
                ],
            )
            for k in range(slots)
        ]
        for w in range(num_warps)
    ]
    assert got.shape == (num_warps, slots)
    assert got.tolist() == expected


@settings(max_examples=60)
@given(
    bases=st.dictionaries(
        st.sampled_from([REGISTER, LANE, WARP, "block"]),
        st.lists(st.tuples(st.integers(0, 7), st.integers(0, 15)), max_size=4),
        max_size=4,
    ),
    data=st.data(),
)
def test_flat_table_equals_apply_flat(bases, data):
    layout = LinearLayout(bases, {"x": 8, "y": 16}, require_surjective=False)
    dims = layout.in_dims
    order = data.draw(st.permutations(dims))
    table = layout.flat_table(order)
    assert table.dtype == np.int64
    assert len(table) == layout.total_in_size()
    for index, value in enumerate(table.tolist()):
        inputs = {}
        for dim in order:
            bits = layout.in_dim_size_log2(dim)
            inputs[dim] = index & ((1 << bits) - 1)
            index >>= bits
        assert value == layout.apply_flat(inputs)


def test_flat_table_holds_unlisted_dims_at_zero():
    layout = LinearLayout(
        {REGISTER: [(1, 0)], "block": [(2, 0)], LANE: [(0, 1)]},
        {"x": 4, "y": 2},
    )
    table = layout.flat_table((REGISTER, LANE, WARP))
    assert table.tolist() == [
        layout.apply_flat({REGISTER: r, LANE: lane})
        for lane in range(2)
        for r in range(2)
    ]


class TestSharedAccessesValue:
    TUPLES = (
        ((0, (0, 1)), (8, (2,))),
        (),
        ((4, (3,)),),
    )

    def test_round_trip_and_shape(self):
        acc = SharedAccesses.from_tuples(self.TUPLES)
        assert acc.to_tuples() == self.TUPLES
        assert (acc.num_threads, acc.max_accesses, acc.widest) == (3, 2, 2)
        assert acc.max_elements() == 3
        assert acc.max_reg() == 3

    def test_compiled_bound_is_one_past_the_highest_kept_offset(self):
        """What sizes the interpreter's shared memory: the offsets the
        compiled STS/LDS moves, over the threads it keeps."""
        def bound(tuples, warp_size, num_warps):
            sts = Sts(SharedAccesses.from_tuples(tuples), elem_bytes=4)
            return _compile_shared(sts, RTX4090, warp_size, num_warps)[4]

        assert bound(self.TUPLES, 2, 2) == 9
        assert bound(self.TUPLES[::-1], 2, 1) == 5  # thread 2 dropped
        assert bound(self.TUPLES[::-1], 2, 2) == 9
        assert bound(((),), 32, 1) == 0

    def test_value_semantics(self):
        a = SharedAccesses.from_tuples(self.TUPLES)
        b = SharedAccesses.from_tuples(self.TUPLES)
        c = SharedAccesses.from_tuples(self.TUPLES[:2])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert pickle.loads(pickle.dumps(a)) == a
        with pytest.raises(ValueError):
            a.base[0, 0] = 1

    def test_elements_in_issue_order(self):
        acc = SharedAccesses.from_tuples(self.TUPLES)
        thread, reg, off = acc.elements(warp_size=2, num_warps=2)
        assert list(zip(thread, reg, off)) == [
            (0, 0, 0), (0, 1, 1), (2, 3, 4), (0, 2, 8),
        ]
        thread, _, _ = acc.elements(warp_size=2, num_warps=1)
        assert len(thread) == 3


@settings(max_examples=40)
@given(case=conversion_cases(), data=st.data())
def test_deferred_value_semantics_match_eager(case, data):
    """Equality, hashing, pickling and the views of a deferred value
    are those of its eager value, each reached as its first read."""
    spec, layout, _, d, shape = case
    offsets = _draw_offsets(data, d, shape)
    num_warps = max(2, layout.in_dim_size(WARP))
    args = (layout, offsets, num_warps, spec.warp_size,
            data.draw(st.sampled_from([1, 2, 4, 8])), data.draw(st.booleans()))

    def fresh():
        acc = _build_accesses(*args)
        assert _is_deferred(acc)
        return acc

    eager = SharedAccesses.from_tuples(fresh().to_tuples())
    assert fresh() == eager and eager == fresh()
    assert hash(fresh()) == hash(eager)
    unpickled = pickle.loads(pickle.dumps(fresh()))
    assert unpickled == eager and not _is_deferred(unpickled)
    assert fresh().to_tuples() == eager.to_tuples()
    for got, want in zip(
        fresh().elements(spec.warp_size, num_warps),
        eager.elements(spec.warp_size, num_warps),
    ):
        assert got.tolist() == want.tolist()
    for warps in range(1, num_warps + 1):
        threads = warps * spec.warp_size
        acc = fresh()
        assert acc.leading(threads) == eager.leading(threads)
        assert _is_deferred(acc) == (warps == 1)


def _two_warp_accesses(ws):
    """Warp 0 stores one element per lane; warp 1 one, then two more."""
    return SharedAccesses.from_tuples(
        [((lane, (0,)),) for lane in range(ws)]
        + [((ws + lane, (0,)), (2 * ws + 2 * lane, (1, 2))) for lane in range(ws)]
    )


@pytest.mark.parametrize("matrix", [False, True])
def test_price_reads_only_the_priced_warps(matrix):
    """Slots, widest access and matrix element counts come from the
    first ``warps`` warps: warp 1's extra access is billed only when
    warp 1 is priced."""
    from repro.gpusim.opcost import price_program
    from repro.program.ir import Sts, WarpProgram

    spec = RTX4090
    full = _two_warp_accesses(spec.warp_size)

    def price(acc, warps):
        program = WarpProgram((Sts(acc, 8, use_stmatrix=matrix),))
        (record,) = price_program(program, spec, warps=warps).instructions
        return record

    one, two = price(full, 1), price(full, 2)
    # One slot, then two; as matrix rows of 16 bytes, one 8-byte
    # element per lane, then three.
    assert (one.count, two.count) == (1, 2)
    if not matrix:
        assert (one.vector_bits, two.vector_bits) == (64, 128)
    # A deferred value prices as its eager value; warp 0 needs no build.
    deferred = SharedAccesses.deferred(full.leading(spec.warp_size), lambda: full)
    assert price(deferred, 1) == one and _is_deferred(deferred)
    assert price(deferred, 2) == two and not _is_deferred(deferred)


@pytest.mark.parametrize("matrix", [False, True])
def test_machine_measures_the_priced_warps(matrix):
    """The machine's STS record over two warps is the static price
    over two warps: warp 1's extra slot and wider access are measured
    on the offsets it ran, with 8-byte elements spanning two bank
    words; an stmatrix stays priced by its element count."""
    from repro.gpusim import Machine, RegisterFile
    from repro.gpusim.opcost import price_program
    from repro.program.ir import R_IN, Sts, WarpProgram

    spec = RTX4090
    ws = spec.warp_size
    program = WarpProgram(
        (Sts(_two_warp_accesses(ws), 8, use_stmatrix=matrix),)
    )
    values = np.arange(2 * ws * 3, dtype=np.int64).reshape(2, ws, 3)
    registers = RegisterFile.from_dense(
        values, np.ones(values.shape, dtype=bool), 2, ws
    )
    _, trace = Machine(spec, 2).run_program(program, {R_IN: registers})
    assert trace.instructions == price_program(program, spec, 2).instructions


def test_cold_fig9_pass_builds_no_full_access_table(monkeypatch):
    """Static pricing reads warp 0 alone, so compiling every fig9 case
    from empty caches never builds a CTA access table."""
    from tests.test_pipeline import FIG9_SUITE, _compile_fig9

    counts = {"deferred": 0, "built": 0}
    real_deferred = SharedAccesses.deferred.__func__
    real_materialize = SharedAccesses._materialize

    def deferred(cls, head, build):
        counts["deferred"] += 1
        return real_deferred(cls, head, build)

    def materialize(self):
        counts["built"] += self._build is not None
        real_materialize(self)

    monkeypatch.setattr(SharedAccesses, "deferred", classmethod(deferred))
    monkeypatch.setattr(SharedAccesses, "_materialize", materialize)
    cache.clear()
    for model, case, platform, mode in FIG9_SUITE:
        _compile_fig9(model, case, platform, mode)
    assert counts["deferred"] > 0
    assert counts["built"] == 0


@settings(max_examples=40, deadline=None)
@given(case=conversion_cases(), data=st.data())
def test_access_memo_keys_every_input(case, data):
    """A memoized table is served only to a call whose every input
    matches: varying any option on one layout and staging reads a table
    equal to a fresh build, and repeating a call returns the same one."""
    spec, layout, _, d, shape = case
    offsets = _draw_offsets(data, d, shape)
    warps = max(1, layout.in_dim_size(WARP))
    reg_images = [x for x in layout.basis_images_flat(REGISTER) if x]
    base = dict(
        num_warps=warps, warp_size=spec.warp_size, max_vec_elems=4,
        dedupe_broadcast=True, vec_basis=None, sort_by_offset=False,
    )
    variants = [
        base,
        dict(base, num_warps=2 * warps),
        dict(base, max_vec_elems=1),
        dict(base, dedupe_broadcast=False),
        dict(base, sort_by_offset=True),
        dict(base, vec_basis=tuple(reg_images[:1]) or None),
    ]
    cache.clear()
    for kwargs in variants:
        got = conversion._shared_accesses(
            layout, "drawn", lambda: offsets, **kwargs
        )
        want = _build_accesses(layout, offsets, **kwargs)
        assert got.to_tuples() == want.to_tuples()
        again = conversion._shared_accesses(
            layout, "drawn", lambda: offsets, **kwargs
        )
        assert again is got


def test_twin_platforms_share_access_tables(monkeypatch):
    """RTX4090 and GH200 agree on warp size, vector width and bank rows,
    so a conversion planned on both builds its access tables once; with
    the cache bypassed the second platform builds equal ones afresh."""
    from repro.layouts import BlockedLayout

    src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear((32, 64))
    dst = BlockedLayout((4, 1), (4, 8), (2, 2), (0, 1)).to_linear((32, 64))
    builds = []
    real = conversion._build_accesses

    def counted(*args, **kwargs):
        builds.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(conversion, "_build_accesses", counted)
    cache.clear()

    def plan(spec):
        return plan_conversion(
            src, dst, 16, spec=spec, allow_shuffle=False,
            swizzle_mode="padded", dedupe_broadcast=False,
        )

    first, second = plan(RTX4090), plan(GH200)
    assert len(builds) == 2
    for a, b in zip(first.program.instrs, second.program.instrs):
        if hasattr(a, "accesses"):
            assert a.accesses is b.accesses
    with cache.disabled():
        fresh = plan(GH200)
    assert len(builds) == 4
    for a, b in zip(first.program.instrs, fresh.program.instrs):
        if hasattr(a, "accesses"):
            assert a.accesses == b.accesses and a.accesses is not b.accesses


def test_offset_tables_built_only_on_access_misses(monkeypatch):
    """A swizzled candidate builds its staging offset table only when
    one of its two access lookups misses: the twin platform, whose
    lookups all hit, builds none and plans the same program."""
    from repro.layouts import BlockedLayout

    src = BlockedLayout((1, 4), (8, 4), (2, 2), (1, 0)).to_linear((32, 64))
    dst = BlockedLayout((4, 1), (4, 8), (2, 2), (0, 1)).to_linear((32, 64))
    tables, builds = [], []
    real_offsets = conversion._swizzled_offsets
    real_build = conversion._build_accesses

    def counted_offsets(memory_layout):
        tables.append(memory_layout)
        return real_offsets(memory_layout)

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(conversion, "_swizzled_offsets", counted_offsets)
    monkeypatch.setattr(conversion, "_build_accesses", counted_build)
    cache.clear()

    def plan(spec):
        return plan_conversion(
            src, dst, 16, spec=spec, allow_shuffle=False,
            swizzle_mode="optimal",
        )

    first = plan(RTX4090)
    assert first.kind == "shared"
    assert builds and 1 <= len(tables) <= len(builds)
    counts = len(tables), len(builds)
    second = plan(GH200)
    assert (len(tables), len(builds)) == counts
    assert second.program == first.program
    with cache.disabled():
        assert plan(GH200).program == first.program
    assert len(tables) > counts[0]
