"""Per-thread register files and distributed-tensor materialization.

A :class:`RegisterFile` is backed by one dense ``(warps, lanes, regs)``
NumPy array of values plus a boolean array of the same shape that
marks the written slots, so the program interpreter
(:mod:`repro.program.interp`) moves values and mask with the same
index arrays and never loops per slot.  The values' dtype is that of
the data moved: int64 position ids, float64 tensor elements.

One dtype rule: a file holds every written value exactly.  A file
with nothing written takes the dtype of its first value; a later
write that the dtype cannot hold exactly (a string, a float into an
int file, an int past int64) promotes the file to ``object``.
Numeric values keep a numeric dtype; anything else is stored as an
object.  The dict-style API (``read``/``write``/``has``/``as_dict``)
is that of a sparse map: ``read`` of an unwritten slot raises
``KeyError``, and writing ``None`` clears a slot.

:func:`distributed_data` and :func:`assert_matches_layout` fill and
check a whole file from the layout's slot table
(:func:`repro.codegen.views.slot_table`).  ``value_of`` runs once, on
the int64 array of every flat position, and must return an array of
values of the same length (an elementwise expression such as
``lambda p: flat[p]`` or ``lambda p: p * 3 + 1``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.layout import LinearLayout
from repro.codegen.views import slot_table

Slot = Tuple[int, int, int]  # (warp, lane, reg)

_OBJECT = np.dtype(object)


def _storage_dtype(values: np.ndarray) -> np.dtype:
    """The dtype a register file or shared memory stores values in:
    their own if numeric, else ``object`` (a fixed-width string dtype
    would truncate a later, longer value)."""
    dtype = values.dtype
    return dtype if dtype.kind in "biufc" else _OBJECT


def _value_dtype(value: object) -> np.dtype:
    """The dtype one written value is stored in: a numeric scalar's
    own, else ``object`` (ints past int64 included)."""
    arr = np.asarray(value)
    return _storage_dtype(arr) if arr.ndim == 0 else _OBJECT


def _holds(dtype: np.dtype, value_dtype: np.dtype) -> bool:
    """True iff ``dtype`` stores every value of ``value_dtype`` exactly."""
    if dtype == _OBJECT or value_dtype == dtype:
        return True
    # NumPy calls int64 -> float64 "safe"; it is not exact.
    return np.can_cast(value_dtype, dtype, "safe") and not (
        value_dtype.kind in "iu" and dtype.kind in "fc"
    )


class RegisterFile:
    """Values held by every (warp, lane, register) slot of a CTA."""

    def __init__(self, num_warps: int, warp_size: int):
        self.num_warps = num_warps
        self.warp_size = warp_size
        self._arr = np.zeros((num_warps, warp_size, 0), dtype=np.int64)
        self._mask = np.zeros(self._arr.shape, dtype=bool)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the stored values."""
        return self._arr.dtype

    def _grow(self, warp: int, lane: int, reg: int) -> None:
        nw, ws, nr = self._arr.shape
        shape = (max(nw, warp + 1), max(ws, lane + 1), max(nr * 2, reg + 1))
        arr = np.zeros(shape, dtype=self._arr.dtype)
        mask = np.zeros(shape, dtype=bool)
        arr[:nw, :ws, :nr] = self._arr
        mask[:nw, :ws, :nr] = self._mask
        self._arr, self._mask = arr, mask

    def write(self, warp: int, lane: int, reg: int, value: object) -> None:
        """Set one register slot; ``None`` clears it."""
        nw, ws, nr = self._arr.shape
        if value is None:
            if warp < nw and lane < ws and reg < nr:
                self._mask[warp, lane, reg] = False
            return
        if warp >= nw or lane >= ws or reg >= nr:
            self._grow(warp, lane, reg)
        value_dtype = _value_dtype(value)
        if not _holds(self._arr.dtype, value_dtype):
            if self._mask.any():
                self._arr = self._arr.astype(object)
            else:  # nothing written yet: take the value's dtype
                self._arr = np.zeros(self._arr.shape, dtype=value_dtype)
        self._arr[warp, lane, reg] = value
        self._mask[warp, lane, reg] = True

    def read(self, warp: int, lane: int, reg: int) -> object:
        """Read one register slot; raises KeyError if never written."""
        if self.has(warp, lane, reg):
            return self._arr[warp, lane, reg]
        raise KeyError(
            f"read of unwritten register (w={warp}, l={lane}, r={reg})"
        )

    def has(self, warp: int, lane: int, reg: int) -> bool:
        """True iff the slot has been written."""
        nw, ws, nr = self._arr.shape
        return (
            warp < nw
            and lane < ws
            and reg < nr
            and bool(self._mask[warp, lane, reg])
        )

    def copy(self) -> "RegisterFile":
        """An independent copy of all slots."""
        return RegisterFile.from_dense(
            self._arr.copy(), self._mask.copy(),
            self.num_warps, self.warp_size,
        )

    def as_dict(self) -> Dict[Slot, object]:
        """All written slots as a plain dict (values as :meth:`read`)."""
        slots = map(tuple, np.argwhere(self._mask).tolist())
        return dict(zip(slots, self._arr[self._mask]))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._mask))

    # -- dense-array interop (the interpreter's representation) --------
    @property
    def num_regs(self) -> int:
        """Capacity of the register dimension (highest written + 1)."""
        return self._arr.shape[2]

    def dense(
        self, num_warps: int, warp_size: int, num_regs: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Independent (values, written mask) arrays of exactly the
        given shape; slots past the file's extent are unwritten."""
        shape = (num_warps, warp_size, num_regs)
        nw, ws, nr = self._arr.shape
        if (nw, ws, nr) == shape:
            return self._arr.copy(), self._mask.copy()
        arr = np.zeros(shape, dtype=self._arr.dtype)
        mask = np.zeros(shape, dtype=bool)
        w, l, r = min(nw, num_warps), min(ws, warp_size), min(nr, num_regs)
        arr[:w, :l, :r] = self._arr[:w, :l, :r]
        mask[:w, :l, :r] = self._mask[:w, :l, :r]
        return arr, mask

    @staticmethod
    def from_dense(
        arr: np.ndarray, mask: np.ndarray, num_warps: int, warp_size: int
    ) -> "RegisterFile":
        """Wrap (values, written mask) arrays (ownership transfers; no
        copy).  Non-numeric values are stored as objects."""
        rf = RegisterFile.__new__(RegisterFile)
        rf.num_warps = num_warps
        rf.warp_size = warp_size
        rf._arr = arr.astype(_storage_dtype(arr), copy=False)
        rf._mask = mask
        return rf


def _slot_values(
    table: np.ndarray, value_of: Optional[Callable[[np.ndarray], object]]
) -> np.ndarray:
    """``value_of`` of every slot's flat position.

    A distributed layout is surjective (Definition 4.10), so its slot
    table holds every position up to its maximum: ``value_of`` runs
    once, on ``np.arange(size, dtype=np.int64)``, and its results are
    gathered through the table.  The default is the positions
    themselves.
    """
    size = int(table.max()) + 1
    values = np.arange(size, dtype=np.int64)
    if value_of is not None:
        values = np.asarray(value_of(values))
        if values.shape != (size,):
            raise ValueError(
                f"value_of must map the {size} positions to {size} "
                f"values; it returned shape {values.shape}"
            )
    return values[table]


def distributed_data(
    layout: LinearLayout,
    num_warps: int,
    warp_size: int,
    value_of: Optional[Callable[[np.ndarray], object]] = None,
) -> RegisterFile:
    """Materialize a register file where every slot holds the value of
    the logical element its layout assigns to it.

    ``value_of`` maps the array of flattened logical positions to
    their values (default: the positions themselves, as int64), so
    conversion correctness checks reduce to comparing arrays.  The
    file's dtype is that of the values.  It spans at least the
    layout's warps and lanes, and exactly its registers.
    """
    table = slot_table(layout)
    warps, lanes, regs = table.shape
    values = _slot_values(table, value_of)
    shape = (max(num_warps, warps), max(warp_size, lanes), regs)
    arr = np.zeros(shape, dtype=values.dtype)
    mask = np.zeros(shape, dtype=bool)
    arr[:warps, :lanes] = values
    mask[:warps, :lanes] = True
    return RegisterFile.from_dense(arr, mask, num_warps, warp_size)


def assert_matches_layout(
    rf: RegisterFile,
    layout: LinearLayout,
    value_of: Optional[Callable[[np.ndarray], object]] = None,
) -> None:
    """Raise AssertionError when any slot disagrees with the layout.

    Every slot is compared in one typed comparison; a slot holding NaN
    where NaN is expected passes.  The first bad slot in ``(w, l, r)``
    order is reported, as :meth:`RegisterFile.read`'s ``KeyError``
    when it was never written.  Only then does ``value_of`` run a
    second time, on the bad slot's position as an ``int``, to name
    the expected value.
    """
    table = slot_table(layout)
    got, written = rf.dense(*table.shape)
    want = _slot_values(table, value_of)
    bad = got != want
    if bad.any():
        # NaN != NaN: a slot holding the NaN it should hold passes.
        bad &= ~((got != got) & (want != want))
    bad |= ~written
    if not bad.any():
        return
    w, l, r = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    value = rf.read(w, l, r)
    flat = int(table[w, l, r])
    expected = flat if value_of is None else value_of(flat)
    raise AssertionError(
        f"slot (w={w}, l={l}, r={r}) holds {value!r}, "
        f"expected element {expected!r} (flat {flat})"
    )
