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
from typing import Callable, Sequence, Tuple

import numpy as np

#: The nested tuple view: ``tuples[tid]`` is a tuple of
#: ``(base_offset, regs)`` pairs.
AccessTuples = Tuple[Tuple[Tuple[int, Tuple[int, ...]], ...], ...]

#: Serializes first reads of deferred values, so one build wins.
_BUILD_LOCK = threading.Lock()


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
    their tuple views are.  The arrays are read-only; the value is
    immutable and hashable.

    A deferred value holds only the rows of its leading threads until
    ``base``, ``width`` or ``regs`` is first read.
    """

    __slots__ = ("base", "width", "regs", "_head", "_build", "_hash")

    def __init__(self, base, width, regs):
        base = np.array(base, dtype=np.int64)
        width = np.array(width, dtype=np.int64)
        regs = np.array(regs, dtype=np.int64)
        if width.shape != base.shape or regs.shape[:2] != base.shape:
            raise ValueError(
                f"access arrays disagree: base {base.shape}, "
                f"width {width.shape}, regs {regs.shape}"
            )
        for arr in (base, width, regs):
            arr.flags.writeable = False
        self.base = base
        self.width = width
        self.regs = regs
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

    @classmethod
    def from_tuples(cls, tuples: Sequence) -> "SharedAccesses":
        """Build from the nested ``(base, regs)`` tuple view."""
        threads = len(tuples)
        k_max = max((len(a) for a in tuples), default=0)
        v_max = max(
            (len(regs) for a in tuples for _, regs in a), default=0
        )
        base = np.zeros((threads, k_max), dtype=np.int64)
        width = np.zeros((threads, k_max), dtype=np.int64)
        regs = np.full((threads, k_max, v_max), -1, dtype=np.int64)
        for t, lane_accesses in enumerate(tuples):
            for k, (b, rs) in enumerate(lane_accesses):
                base[t, k] = b
                width[t, k] = len(rs)
                regs[t, k, : len(rs)] = rs
        return cls(base, width, regs)

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
            off = np.add(
                self.base[:threads].T[:, :, None], np.arange(vec), order="C"
            )
            return tid, reg, off
        k, tid, j = np.nonzero(np.arange(vec) < width[:, :, None])
        at = tid * slots + k  # flat (thread, slot)
        reg = self.regs.reshape(-1)[at * vec + j]
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


__all__ = ["AccessTuples", "SharedAccesses"]
