"""Per-slot reference for register-file fill and check.

:func:`repro.gpusim.registers.distributed_data` and
:func:`~repro.gpusim.registers.assert_matches_layout` work on the
layout's whole slot table at once.  This module keeps the original
slot-by-slot versions, one ``flat_of``, one ``write`` or ``read`` and
one ``value_of`` call on a plain ``int`` per (warp, lane, register),
as the differential-testing oracle.  It also holds the slot-at-a-time
register-file API the per-lane references and the tests write and
read through (:func:`empty_file`, :func:`write`, :func:`as_dict`):
the compiler fills whole files from arrays.  Only tests import it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.codegen.views import DistributedView
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.gpusim.registers import RegisterFile
from tests.layout_reference import flat_of

_OBJECT = np.dtype(object)


def empty_file(num_warps: int, warp_size: int) -> RegisterFile:
    """A register file with nothing written; it grows as slots are."""
    shape = (num_warps, warp_size, 0)
    return RegisterFile(
        np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=bool),
        num_warps, warp_size,
    )


def _value_dtype(value: object) -> np.dtype:
    """The dtype one written value is stored in: a numeric scalar's
    own, else ``object`` (ints past int64 included)."""
    arr = np.asarray(value)
    if arr.ndim == 0 and arr.dtype.kind in "biufc":
        return arr.dtype
    return _OBJECT


def _holds(dtype: np.dtype, value_dtype: np.dtype) -> bool:
    """True iff ``dtype`` stores every value of ``value_dtype`` exactly."""
    if dtype == _OBJECT or value_dtype == dtype:
        return True
    # NumPy calls int64 -> float64 "safe"; it is not exact.
    return np.can_cast(value_dtype, dtype, "safe") and not (
        value_dtype.kind in "iu" and dtype.kind in "fc"
    )


def write(rf: RegisterFile, warp: int, lane: int, reg: int, value: object) -> None:
    """Set one slot of ``rf``, growing it as needed; ``None`` clears it.

    One dtype rule: a file holds every written value exactly.  A file
    with nothing written takes the dtype of its first value; a later
    write that the dtype cannot hold exactly (a string, a float into an
    int file, an int past int64) promotes the file to ``object``.
    """
    nw, ws, nr = rf._arr.shape
    if value is None:
        if warp < nw and lane < ws and reg < nr:
            rf._mask[warp, lane, reg] = False
        return
    if warp >= nw or lane >= ws or reg >= nr:
        shape = (max(nw, warp + 1), max(ws, lane + 1), max(nr * 2, reg + 1))
        arr = np.zeros(shape, dtype=rf._arr.dtype)
        mask = np.zeros(shape, dtype=bool)
        arr[:nw, :ws, :nr] = rf._arr
        mask[:nw, :ws, :nr] = rf._mask
        rf._arr, rf._mask = arr, mask
    value_dtype = _value_dtype(value)
    if not _holds(rf._arr.dtype, value_dtype):
        if rf._mask.any():
            rf._arr = rf._arr.astype(object)
        else:  # nothing written yet: take the value's dtype
            rf._arr = np.zeros(rf._arr.shape, dtype=value_dtype)
    rf._arr[warp, lane, reg] = value
    rf._mask[warp, lane, reg] = True


def as_dict(rf: RegisterFile) -> Dict[Tuple[int, int, int], object]:
    """All written ``(warp, lane, reg)`` slots of ``rf`` as a plain
    dict, values as ``rf.read`` returns them."""
    slots = map(tuple, np.argwhere(rf._mask).tolist())
    return dict(zip(slots, rf._arr[rf._mask]))


def distributed_data(
    layout: LinearLayout,
    num_warps: int,
    warp_size: int,
    value_of: Optional[Callable[[int], object]] = None,
) -> RegisterFile:
    """Write every slot's value one slot at a time."""
    view = DistributedView(layout)
    rf = empty_file(num_warps, warp_size)
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    warps = layout.in_dim_size(WARP)
    if value_of is None:
        value_of = lambda p: p  # noqa: E731
    for w in range(warps):
        for l in range(lanes):
            for r in range(regs):
                p = flat_of(view, {REGISTER: r, LANE: l, WARP: w})
                write(rf, w, l, r, value_of(p))
    return rf


def assert_matches_layout(
    rf: RegisterFile,
    layout: LinearLayout,
    value_of: Optional[Callable[[int], object]] = None,
) -> None:
    """Read and compare every slot one at a time; stop at the first
    unwritten (``KeyError``) or wrong (``AssertionError``) one."""
    view = DistributedView(layout)
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    warps = layout.in_dim_size(WARP)
    if value_of is None:
        value_of = lambda p: p  # noqa: E731
    for w in range(warps):
        for l in range(lanes):
            for r in range(regs):
                p = flat_of(view, {REGISTER: r, LANE: l, WARP: w})
                got = rf.read(w, l, r)
                want = value_of(p)
                # A slot holding the NaN it should hold passes.
                if got != want and not (got != got and want != want):
                    raise AssertionError(
                        f"slot (w={w}, l={l}, r={r}) holds {got!r}, "
                        f"expected element {want!r} (flat {p})"
                    )
