"""Per-slot reference for register-file fill and check.

:func:`repro.gpusim.registers.distributed_data` and
:func:`~repro.gpusim.registers.assert_matches_layout` work on the
layout's whole slot table at once.  This module keeps the original
slot-by-slot versions, one ``flat_of``, one ``write`` or ``read`` and
one ``value_of`` call on a plain ``int`` per (warp, lane, register),
as the differential-testing oracle.  Only tests import it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.codegen.views import DistributedView
from repro.core.dims import LANE, REGISTER, WARP
from repro.core.layout import LinearLayout
from repro.gpusim.registers import RegisterFile


def distributed_data(
    layout: LinearLayout,
    num_warps: int,
    warp_size: int,
    value_of: Optional[Callable[[int], object]] = None,
) -> RegisterFile:
    """Write every slot's value one slot at a time."""
    view = DistributedView(layout)
    rf = RegisterFile(num_warps, warp_size)
    regs = layout.in_dim_size(REGISTER)
    lanes = layout.in_dim_size(LANE)
    warps = layout.in_dim_size(WARP)
    if value_of is None:
        value_of = lambda p: p  # noqa: E731
    for w in range(warps):
        for l in range(lanes):
            for r in range(regs):
                p = view.flat_of({REGISTER: r, LANE: l, WARP: w})
                rf.write(w, l, r, value_of(p))
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
                p = view.flat_of({REGISTER: r, LANE: l, WARP: w})
                got = rf.read(w, l, r)
                want = value_of(p)
                # A slot holding the NaN it should hold passes.
                if got != want and not (got != got and want != want):
                    raise AssertionError(
                        f"slot (w={w}, l={l}, r={r}) holds {got!r}, "
                        f"expected element {want!r} (flat {p})"
                    )
