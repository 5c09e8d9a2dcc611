"""The dense shared-memory access format.

A shared-memory conversion step has every thread of the CTA move a
short list of vectorized accesses: access ``k`` of thread ``t`` moves
registers ``regs`` to (or from) consecutive element offsets starting
at ``base``.  Entry ``k`` across the threads of a warp forms one
lockstep warp instruction.

:class:`SharedAccesses` holds those lists for a whole CTA as three
arrays.  It is the one format the planner builds
(:mod:`repro.codegen.conversion`), the plan and program steps carry,
the one instruction pricer reads (through :mod:`repro.gpusim.memory`),
and the vectorized interpreter compiles
into index arrays.  :meth:`SharedAccesses.to_tuples` gives the nested
``(base, regs)`` tuple view for serialization and the per-lane test
reference.
"""

from __future__ import annotations

import threading
from typing import Callable, Tuple

import numpy as np

#: The nested tuple view: ``tuples[tid]`` is a tuple of
#: ``(base_offset, regs)`` pairs.
AccessTuples = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], ...]

#: Serializes first reads of deferred values, so one build wins.
_BUILD_LOCK = threading.Lock()

_INT32 = np.iinfo(np.int32)


class SharedAccesses:
    """Per-thread vectorized shared-memory accesses of one CTA step.

    - ``base[t, k]``: element offset of thread ``t``'s access ``k``;
    - ``width[t, k]``: elements it moves, 0 when thread ``t`` has
      fewer than ``k + 1`` accesses;
    - ``regs[t, k, j]``: register landing at ``base + j`` for
      ``j < width[t, k]``, -1 beyond.

    Every thread's accesses are packed from ``k = 0``.  The arrays are
    canonical: absent entries read ``base 0``, ``width 0`` and ``regs
    -1``, the second axis is as long as the longest list and the third
    as the widest access.  So two instances are equal exactly when
    their tuple views are.  The arrays are read-only int32 (a value
    outside int32 raises ``ValueError``); the value is immutable and
    hashable.

    When every thread's ``width`` row is the same, and so is every
    thread's ``regs`` row, each is stored once, as a stride-0
    broadcast view of one copied row.  A distributed layout (Def.
    4.10) routes every thread's registers through the same linear
    map, so when every thread moves data their register order and
    vector grouping are the same and only ``base`` differs.  The
    shape, the values, equality, hashing and :meth:`to_tuples` do not
    depend on the storage.

    A deferred value holds only the rows of its leading threads until
    ``base``, ``width`` or ``regs`` is first read.
    """

    __slots__ = ("base", "width", "regs", "_head", "_build", "_hash")

    def __init__(self, base, width, regs):
        base, width, regs = np.asarray(base), np.asarray(width), np.asarray(regs)
        if width.shape != base.shape or regs.shape[:2] != base.shape:
            raise ValueError(
                f"access arrays disagree: base {base.shape}, "
                f"width {width.shape}, regs {regs.shape}"
            )
        self.base = _int32(base)
        if _one_row(width) and _one_row(regs):
            self.width, self.regs = _stored_row(width), _stored_row(regs)
        else:
            self.width, self.regs = _int32(width), _int32(regs)
        self._head = self._build = self._hash = None

    @classmethod
    def deferred(
        cls, head: "SharedAccesses", build: Callable[[], "SharedAccesses"]
    ) -> "SharedAccesses":
        """The value ``build()`` returns, built on the first read of its
        arrays (by the interpreter, serialization, equality, hashing or
        the queries below), which then drops ``head``: the value of the
        leading threads alone, served by :meth:`leading` without a build.
        """
        value = cls.__new__(cls)
        value._head, value._build, value._hash = head, build, None
        return value

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: a deferred first read.
        if name not in ("base", "width", "regs"):
            raise AttributeError(name)
        self._materialize()
        return object.__getattribute__(self, name)

    def _materialize(self) -> None:
        with _BUILD_LOCK:
            if self._build is None:
                return  # another thread built it
            full = self._build()
            self.base, self.width, self.regs = full.base, full.width, full.regs
            # Drop the head last: a reader that finds it gone finds them.
            self._head = self._build = None

    def leading(self, threads: int) -> "SharedAccesses":
        """The value of the first ``threads`` threads alone.

        Canonical, as if built for those threads: the slot and vector
        axes shrink to their longest list and widest access.  A
        deferred value whose head covers them answers without a build.
        """
        head = self._head
        acc = head if head is not None and threads <= head.num_threads else self
        if threads >= acc.num_threads:
            return acc
        width = acc.width[:threads]
        k = int((width > 0).sum(axis=1).max(initial=0))
        v = int(width.max(initial=0))
        return SharedAccesses(
            acc.base[:threads, :k], width[:, :k], acc.regs[:threads, :k, :v]
        )

    def to_tuples(self) -> AccessTuples:
        """The nested view: per thread, ``(base, regs)`` per access."""
        out = []
        for bases, widths, regs in zip(
            self.base.tolist(), self.width.tolist(), self.regs.tolist()
        ):
            out.append(
                tuple(
                    (b, tuple(rs[:w]))
                    for b, w, rs in zip(bases, widths, regs)
                    if w
                )
            )
        return tuple(out)

    # ------------------------------------------------------------------
    # Shape queries
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        """Threads the step describes (warps x warp size)."""
        return self.base.shape[0]

    @property
    def max_accesses(self) -> int:
        """The longest per-thread list: warp instructions issued."""
        return self.base.shape[1]

    @property
    def widest(self) -> int:
        """Elements moved by the widest access (0 if none)."""
        return self.regs.shape[2]

    def max_elements(self) -> int:
        """Elements the busiest thread moves."""
        return int(self.width.sum(axis=1).max(initial=0))

    def max_reg(self) -> int:
        """The highest register id moved (-1 if none)."""
        return int(self.regs.max(initial=-1))

    def elements(
        self, warp_size: int, num_warps: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(thread, reg, offset)`` of every moved element.

        Threads are numbered ``warp * warp_size + lane``; those past
        ``num_warps`` warps are dropped.  Elements come in machine issue
        order: access slot ``k``, then thread, then element within the
        vector.

        A full-width table (every kept thread moves the widest vector
        in every slot) comes back as its ``(slot, thread, element)``
        grid, whose C order is issue order.  ``offset`` is
        ``base.T[:, :, None] + arange(vec)``, the one new array;
        ``reg`` is the transposed register view and ``thread`` the
        column ``arange(threads)[:, None]``, which broadcasts against
        the other two.  A ragged table comes back as flat arrays,
        enumerated with one search.
        """
        threads = min(self.num_threads, warp_size * num_warps)
        slots, vec = self.max_accesses, self.widest
        width = self.width[:threads].T  # (slot, thread)
        if (width == vec).all():
            tid = np.arange(threads)[:, None]
            reg = self.regs[:threads].transpose(1, 0, 2)
            base = self.base[:threads].T.astype(np.int64)
            return tid, reg, np.add(base[:, :, None], np.arange(vec), order="C")
        elem = np.arange(vec, dtype=width.dtype)
        k, tid, j = np.nonzero(elem < width[:, :, None])
        at = tid * slots + k  # flat (thread, slot)
        # A stored row is indexed by slot alone (flattening its
        # stride-0 view would copy it whole).
        regs, row = (self.regs[0], k) if self.regs.strides[0] == 0 else (self.regs, at)
        reg = regs.reshape(-1)[row * vec + j]
        return tid, reg, self.base.reshape(-1)[at] + j

    def moved(self, warp_size: int, num_warps: int) -> np.ndarray:
        """``[k, w]``: elements warp ``w`` moves in access slot ``k``,
        over the threads :meth:`elements` keeps (one lockstep warp
        instruction per entry, in issue order)."""
        threads = min(self.num_threads, warp_size * num_warps)
        warps = -(-threads // warp_size)
        width = self.width[:threads]
        if threads < warps * warp_size:  # a partial last warp
            width = np.pad(width, ((0, warps * warp_size - threads), (0, 0)))
        slots = width.shape[1]
        return width.reshape(warps, warp_size, slots).sum(axis=1).T

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SharedAccesses):
            return NotImplemented
        return (
            self.regs.shape == other.regs.shape
            and np.array_equal(self.base, other.base)
            and np.array_equal(self.width, other.width)
            and np.array_equal(self.regs, other.regs)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (
                    self.regs.shape,
                    self.base.tobytes(),
                    self.width.tobytes(),
                    self.regs.tobytes(),
                )
            )
        return self._hash

    def __reduce__(self):
        return (SharedAccesses, (self.base, self.width, self.regs))

    def __repr__(self) -> str:
        return (
            f"SharedAccesses({self.num_threads} threads x "
            f"{self.max_accesses} accesses, widest {self.widest})"
        )


def _int32(values: np.ndarray) -> np.ndarray:
    """A read-only int32 copy of ``values``; ``ValueError`` for a value
    outside int32, which a cast would wrap."""
    if values.dtype != np.int32 and values.size:
        low, high = values.min(), values.max()
        if low < _INT32.min or high > _INT32.max:
            raise ValueError(
                f"access value out of int32 range: [{low}, {high}]"
            )
    out = values.astype(np.int32)
    out.flags.writeable = False
    return out


def _stored_row(arr: np.ndarray) -> np.ndarray:
    """``arr``, whose rows are all alike, as a read-only stride-0 view
    of a copy of its first row: what ``np.broadcast_to`` returns, built
    directly, which costs a sixth as much.  (A view of ``arr[0]`` itself
    would keep all of ``arr`` alive.)"""
    row = _int32(arr[0])
    return np.ndarray(arr.shape, row.dtype, row, strides=(0,) + row.strides)


def _one_row(arr: np.ndarray) -> bool:
    """Whether the rows (first axis) of ``arr``, more than one, are all
    the same; a stride-0 view is so by construction."""
    return len(arr) > 1 and (
        arr.strides[0] == 0 or bool((arr[1:] == arr[0]).all())
    )


__all__ = ["AccessTuples", "SharedAccesses"]
