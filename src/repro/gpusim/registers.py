"""Per-thread register files and distributed-tensor materialization.

A :class:`RegisterFile` is backed by a dense ``(warps, lanes, regs)``
NumPy object array with ``None`` marking unwritten slots, so the
vectorized program interpreter can borrow or wrap the storage without
a per-slot conversion loop.  The dict-style API (``read``/``write``/
``has``/``as_dict``) is unchanged; storing ``None`` as a value is
indistinguishable from leaving the slot unwritten.

:func:`distributed_data` and :func:`assert_matches_layout` fill and
check a whole file from the layout's slot table
(:func:`repro.codegen.views.slot_table`) with array gathers and one
elementwise comparison; ``value_of`` runs once per logical position.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.layout import LinearLayout
from repro.codegen.views import slot_table

Slot = Tuple[int, int, int]  # (warp, lane, reg)


class RegisterFile:
    """Values held by every (warp, lane, register) slot of a CTA."""

    def __init__(self, num_warps: int, warp_size: int):
        self.num_warps = num_warps
        self.warp_size = warp_size
        self._arr = np.full((num_warps, warp_size, 0), None, dtype=object)

    def _grow(self, warp: int, lane: int, reg: int) -> None:
        nw, ws, nr = self._arr.shape
        new = np.full(
            (
                max(nw, warp + 1),
                max(ws, lane + 1),
                max(nr * 2, reg + 1),
            ),
            None,
            dtype=object,
        )
        new[:nw, :ws, :nr] = self._arr
        self._arr = new

    def write(self, warp: int, lane: int, reg: int, value: object) -> None:
        """Set one register slot."""
        nw, ws, nr = self._arr.shape
        if warp >= nw or lane >= ws or reg >= nr:
            self._grow(warp, lane, reg)
        self._arr[warp, lane, reg] = value

    def read(self, warp: int, lane: int, reg: int) -> object:
        """Read one register slot; raises KeyError if never written."""
        nw, ws, nr = self._arr.shape
        if warp < nw and lane < ws and reg < nr:
            value = self._arr[warp, lane, reg]
            if value is not None:
                return value
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
            and self._arr[warp, lane, reg] is not None
        )

    def copy(self) -> "RegisterFile":
        """An independent copy of all slots."""
        out = RegisterFile(self.num_warps, self.warp_size)
        out._arr = self._arr.copy()
        return out

    def as_dict(self) -> Dict[Slot, object]:
        """All written slots as a plain dict."""
        written = np.argwhere(self._arr != None)  # noqa: E711 — elementwise
        return {
            (int(w), int(l), int(r)): self._arr[w, l, r]
            for w, l, r in written
        }

    def __len__(self) -> int:
        return int(np.count_nonzero(self._arr != None))  # noqa: E711

    # -- dense-array interop (the vectorized interpreter's fast path) --
    @property
    def num_regs(self) -> int:
        """Capacity of the register dimension (highest written + 1)."""
        return self._arr.shape[2]

    def dense(
        self, num_warps: int, warp_size: int, num_regs: int
    ) -> np.ndarray:
        """An independent object array of exactly the given shape."""
        out = np.full((num_warps, warp_size, num_regs), None, dtype=object)
        nw, ws, nr = self._arr.shape
        w = min(nw, num_warps)
        l = min(ws, warp_size)
        r = min(nr, num_regs)
        out[:w, :l, :r] = self._arr[:w, :l, :r]
        return out

    @staticmethod
    def from_dense(
        arr: np.ndarray, num_warps: int, warp_size: int
    ) -> "RegisterFile":
        """Wrap an object array (ownership transfers; no copy)."""
        rf = RegisterFile.__new__(RegisterFile)
        rf.num_warps = num_warps
        rf.warp_size = warp_size
        rf._arr = arr
        return rf


def _slot_values(
    table: np.ndarray, value_of: Optional[Callable[[int], object]]
) -> np.ndarray:
    """``value_of`` of every slot's flat position, as an object array.

    A distributed layout is surjective (Definition 4.10), so its slot
    table holds every position up to its maximum: ``value_of`` runs
    once per position, in ascending order, on a plain ``int``, and the
    results are gathered through the table.  The default stores the
    positions themselves as ``int``.
    """
    size = int(table.max()) + 1
    if value_of is None:
        values = np.arange(size).astype(object)
    else:
        values = np.fromiter(
            (value_of(p) for p in range(size)), dtype=object, count=size
        )
    return values[table]


def distributed_data(
    layout: LinearLayout,
    num_warps: int,
    warp_size: int,
    value_of: Optional[Callable[[int], object]] = None,
) -> RegisterFile:
    """Materialize a register file where every slot holds the value of
    the logical element its layout assigns to it.

    ``value_of`` maps the flattened logical position to a value
    (default: the position itself), so conversion correctness checks
    reduce to comparing integers.  The file spans at least the
    layout's warps and lanes, and exactly its registers.
    """
    table = slot_table(layout)
    warps, lanes, regs = table.shape
    arr = np.full(
        (max(num_warps, warps), max(warp_size, lanes), regs),
        None,
        dtype=object,
    )
    arr[:warps, :lanes] = _slot_values(table, value_of)
    return RegisterFile.from_dense(arr, num_warps, warp_size)


def assert_matches_layout(
    rf: RegisterFile,
    layout: LinearLayout,
    value_of: Optional[Callable[[int], object]] = None,
) -> None:
    """Raise AssertionError when any slot disagrees with the layout.

    Every slot is compared; the first bad one in ``(w, l, r)`` order
    is reported, as :meth:`RegisterFile.read`'s ``KeyError`` when it
    was never written.
    """
    table = slot_table(layout)
    got = rf.dense(*table.shape)
    want = _slot_values(table, value_of)
    bad = (got == None) | (got != want)  # noqa: E711 — elementwise
    if not bad.any():
        return
    w, l, r = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    value = rf.read(w, l, r)
    raise AssertionError(
        f"slot (w={w}, l={l}, r={r}) holds {value!r}, "
        f"expected element {want[w, l, r]!r} (flat {int(table[w, l, r])})"
    )
