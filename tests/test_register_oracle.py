"""Differential tests of the array-native register fill and check.

:func:`repro.gpusim.registers.distributed_data` and
:func:`~repro.gpusim.registers.assert_matches_layout` read the
layout's whole slot table (:func:`repro.codegen.views.slot_table`)
and call ``value_of`` once, on the int64 array of every position.
They must agree with the per-slot reference
(:mod:`tests.register_reference`), which calls ``value_of`` once per
slot on a plain ``int``, on random distributed layouts: warp 32 and
warp 64 (MI250), broadcast (zero) columns on every hardware dim,
register files both smaller and larger than the layout, and
``value_of`` as the default, an integer expression, the executor's
``lambda p: flat[p]`` over int64 and float64 (NaN, ±inf, -0.0) arrays,
and a lookup into an object array.  Files hold the same dtype and the
same values bit for bit; failures raise the same exception with the
same message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen.views import DistributedView, slot_table
from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.gpusim.registers import (
    RegisterFile,
    assert_matches_layout,
    distributed_data,
)
from tests import register_reference as reference
from tests.layout_reference import flat_of
from tests.register_reference import as_dict, empty_file, write
from tests.test_shared_access_oracle import distributed_layouts, geometries

_MASK = (1 << 32) - 1


@st.composite
def layouts(draw):
    spec, warp_bits, d, shape = draw(geometries())
    lane_bits = spec.warp_size.bit_length() - 1
    return draw(distributed_layouts(lane_bits, warp_bits, d, shape))


@st.composite
def value_fns(draw, layout):
    """``None``, an integer expression, or a lookup into an array."""
    kind = draw(
        st.sampled_from(["default", "int", "int64", "float", "nan", "str"])
    )
    if kind == "default":
        return None
    size = 1 << layout.total_out_bits()
    if kind == "int":
        mul = draw(st.integers(0, _MASK)) | 1
        add = draw(st.integers(0, _MASK))
        return lambda p: (p * mul + add) & _MASK
    flat = np.arange(size, dtype=np.int64) * 3 + 1
    if kind == "float":
        flat = flat.astype(np.float64) / 2
    elif kind == "nan":
        flat = flat.astype(np.float64)
        for i in draw(st.lists(st.integers(0, size - 1), max_size=4)):
            flat[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]))
    elif kind == "str":
        flat = np.array([f"e{p}" for p in range(size)], dtype=object)
    return lambda p: flat[p]


@st.composite
def machine_sizes(draw, layout):
    """(num_warps, warp_size) smaller than, equal to or above the layout's.

    A smaller size stays within a few of the layout's: the reference
    grows its file one warp or lane at a time, doubling the register
    capacity at each step.
    """
    def size(full):
        return draw(
            st.sampled_from(
                sorted({max(1, full - 3), max(1, full - 1), full, 2 * full})
            )
        )

    return size(layout.in_dim_size(WARP)), size(layout.in_dim_size(LANE))


def _cells(rf: RegisterFile, regs: int):
    """A file's contents over its first ``regs`` registers, exactly:
    its dtype, its written mask, and the written values bit for bit
    (``1 == 1.0`` must not pass, nor ``0.0 == -0.0``; NaN matches)."""
    arr, mask = rf._arr[:, :, :regs], rf._mask[:, :, :regs]
    kept = arr[mask]
    if kept.dtype == object:
        kept = [(type(v), v) for v in kept.tolist()]
    else:
        kept = kept.tobytes()
    return arr.dtype, mask.tolist(), kept


def _error(fn, *args, **kwargs):
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


@settings(max_examples=80)
@given(layout=layouts(), data=st.data())
def test_fill_matches_reference(layout, data):
    value_of = data.draw(value_fns(layout))
    num_warps, warp_size = data.draw(machine_sizes(layout))
    got = distributed_data(layout, num_warps, warp_size, value_of)
    want = reference.distributed_data(layout, num_warps, warp_size, value_of)
    assert (got.num_warps, got.warp_size) == (num_warps, warp_size)
    warps = layout.in_dim_size(WARP)
    lanes = layout.in_dim_size(LANE)
    regs = layout.in_dim_size(REGISTER)
    nw, ws, _ = want._arr.shape
    if warps <= num_warps and lanes <= warp_size:
        assert got._arr.shape == want._arr.shape
    else:
        # The reference's one-step growth inflates the register
        # capacity; every slot past the layout's registers is empty.
        assert got._arr.shape == (nw, ws, regs)
        assert not want._mask[:, :, regs:].any()
    assert _cells(got, regs) == _cells(want, regs)
    if value_of is None:
        assert got.dtype == np.int64
    reference.assert_matches_layout(got, layout, value_of)
    assert_matches_layout(want, layout, value_of)
    assert_matches_layout(got, layout, value_of)


@settings(max_examples=80)
@given(layout=layouts(), data=st.data())
def test_check_errors_match_reference(layout, data):
    """Unwritten and wrong slots: same first slot, type and message."""
    value_of = data.draw(value_fns(layout))
    num_warps, warp_size = data.draw(machine_sizes(layout))
    rf = distributed_data(layout, num_warps, warp_size, value_of)
    warps = layout.in_dim_size(WARP)
    lanes = layout.in_dim_size(LANE)
    regs = layout.in_dim_size(REGISTER)
    slot = st.one_of(
        # The first and last slots catch a check that skips either end.
        st.sampled_from([(0, 0, 0), (warps - 1, lanes - 1, regs - 1)]),
        st.tuples(
            st.integers(0, warps - 1),
            st.integers(0, lanes - 1),
            st.integers(0, regs - 1),
        ),
    )
    # No drawn ``value_of`` yields "bad", -1, 1.5 or an int of 2**40 or
    # more, so every write below breaks its slot; some promote the
    # file to object dtype.
    for w, l, r in data.draw(st.lists(slot, min_size=1, max_size=3)):
        bad = data.draw(
            st.sampled_from([None, "bad", -1, 1.5, 1 << 40, 1 << 70])
        )
        write(rf, w, l, r, bad)
    expected = _error(reference.assert_matches_layout, rf, layout, value_of)
    assert expected[0] in (KeyError, AssertionError)
    assert _error(assert_matches_layout, rf, layout, value_of) == expected


@settings(max_examples=60)
@given(layout=layouts(), data=st.data())
def test_too_small_file_matches_reference(layout, data):
    """A file missing warps, lanes or registers fails on the same slot."""
    warps = layout.in_dim_size(WARP)
    lanes = layout.in_dim_size(LANE)
    regs = layout.in_dim_size(REGISTER)
    rf = distributed_data(layout, warps, lanes)
    shape = [warps, lanes, regs]
    axis = data.draw(st.sampled_from([i for i in range(3) if shape[i] > 1]))
    shape[axis] = data.draw(st.integers(0, shape[axis] - 1))
    small = RegisterFile(*rf.dense(*shape), warps, lanes)
    expected = _error(reference.assert_matches_layout, small, layout)
    assert expected[0] is KeyError
    assert _error(assert_matches_layout, small, layout) == expected


def test_non_distributed_layout_matches_reference():
    # One column has two bits set: surjective, not Definition 4.10.
    layout = LinearLayout(
        {REGISTER: [(1, 1), (0, 1)], LANE: [], WARP: []}, {"x": 2, "y": 2}
    )
    expected = _error(reference.distributed_data, layout, 1, 1)
    assert _error(distributed_data, layout, 1, 1) == expected
    rf = empty_file(1, 1)
    expected = _error(reference.assert_matches_layout, rf, layout)
    assert expected[0].__name__ == "LayoutError"
    assert _error(assert_matches_layout, rf, layout) == expected
    assert _error(slot_table, layout) == expected


@settings(max_examples=40)
@given(layout=layouts())
def test_slot_table_is_flat_of(layout):
    view = DistributedView(layout)
    table = slot_table(layout)
    assert table.dtype == np.int64
    assert table.shape == (
        layout.in_dim_size(WARP),
        layout.in_dim_size(LANE),
        layout.in_dim_size(REGISTER),
    )
    for (w, l, r), p in np.ndenumerate(table):
        assert p == flat_of(view, {REGISTER: r, LANE: l, WARP: w})


@settings(max_examples=30)
@given(layout=layouts())
def test_value_of_runs_once_on_all_positions(layout):
    """Fill and check each call ``value_of`` once, on the int64 array
    of every position; a failing check calls it once more, on the bad
    slot's position as an ``int``, to name the expected value."""
    calls = []

    def value_of(p):
        calls.append(p.copy() if isinstance(p, np.ndarray) else p)
        return p * 2

    size = 1 << layout.total_out_bits()
    rf = distributed_data(layout, 1, 1, value_of)
    assert_matches_layout(rf, layout, value_of)
    assert len(calls) == 2
    for positions in calls:
        assert positions.dtype == np.int64
        assert positions.tolist() == list(range(size))
    write(rf, 0, 0, 0, -1)
    with pytest.raises(AssertionError, match="expected element 0 "):
        assert_matches_layout(rf, layout, value_of)
    assert len(calls) == 4 and calls[3] == 0 and type(calls[3]) is int


def test_value_of_must_return_one_value_per_position():
    layout = LinearLayout(
        {REGISTER: [(1, 0), (0, 1)], LANE: [], WARP: []}, {"x": 2, "y": 2}
    )
    with pytest.raises(ValueError, match="4 positions to 4 values"):
        distributed_data(layout, 1, 1, value_of=lambda p: 7)


class TestDtypeRule:
    """A file holds every written value exactly, in one dtype."""

    def test_first_write_picks_the_dtype(self):
        for value, dtype in [(3, np.int64), (2.5, np.float64),
                             (np.float32(1), np.float32), ("x", object),
                             (1 << 70, object)]:
            rf = empty_file(1, 4)
            write(rf, 0, 1, 2, value)
            assert rf.dtype == dtype
            assert rf.read(0, 1, 2) == value
            assert len(rf) == 1 and not rf.has(0, 0, 0)

    @pytest.mark.parametrize("value", ["bad", 2.5, 1 << 70, (1, 2)])
    def test_an_inexact_write_promotes_to_object(self, value):
        rf = distributed_data(
            LinearLayout({REGISTER: [(1,), (2,)], LANE: [], WARP: []},
                         {"x": 4}),
            1, 1,
        )
        assert rf.dtype == np.int64
        write(rf, 0, 0, 1, value)
        assert rf.dtype == object
        assert rf.read(0, 0, 1) == value
        assert [rf.read(0, 0, r) for r in (0, 2, 3)] == [0, 2, 3]

    def test_exact_writes_keep_the_dtype(self):
        rf = empty_file(1, 1)
        write(rf, 0, 0, 0, 1.5)
        for value in (np.float32(0.25), True, np.nan, -0.0):
            write(rf, 0, 0, 1, value)
            assert rf.dtype == np.float64
        assert np.signbit(rf.read(0, 0, 1))
        write(rf, 0, 0, 1, 3)  # int -> float64 is not exact in general
        assert rf.dtype == object

    def test_none_clears_a_slot(self):
        rf = empty_file(1, 1)
        write(rf, 0, 0, 0, 5)
        write(rf, 0, 0, 0, None)
        write(rf, 3, 3, 3, None)  # past the extent: nothing to clear
        assert len(rf) == 0 and not rf.has(0, 0, 0)
        assert as_dict(rf) == {}
        with pytest.raises(KeyError, match=r"\(w=0, l=0, r=0\)"):
            rf.read(0, 0, 0)
