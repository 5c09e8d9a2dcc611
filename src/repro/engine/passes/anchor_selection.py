"""Anchor selection: which ops get to dictate layouts (Section 4.4).

Anchors are the ops whose layouts are fixed by hardware reality —
global loads and stores want coalesced blocked layouts, ``dot`` wants
the platform's MMA accumulator and operand fragments.  Everything
else receives a layout by propagation.  This module owns the anchor
heuristics (warp balancing, default blocked construction, MMA parent
and operand selection) and the :class:`AnchorSelection` pass that
stamps load anchors onto the graph and publishes an
:class:`AnchorCatalog` for the forward-propagation pass to query.

The catalog's anchors are memoized in :mod:`repro.cache` under
``("anchors", ...)`` keys, one entry per blocked anchor and one per
dot (parent, accumulator and both operands) — anchor choice depends
only on the engine configuration and op shapes, never on the
surrounding graph.
"""

from __future__ import annotations

from typing import Tuple

from repro import cache as _cache
from repro.codegen.vectorize import legacy_default_blocked
from repro.core.layout import LinearLayout
from repro.engine.ir import OpKind, Value
from repro.engine.pipeline import CompilationContext, Pass, PassDiagnostics
from repro.hardware.spec import GpuSpec
from repro.layouts.blocked import BlockedLayout
from repro.layouts.mfma import AmdMfmaLayout
from repro.layouts.mma import MmaOperandLayout, NvidiaMmaLayout
from repro.layouts.wgmma import WgmmaLayout, WgmmaOperandLayout
from repro.mxfp.types import DType, mma_kwidth


def balanced_warps(num_warps: int, m: int, n: int, tile_m: int, tile_n: int) -> Tuple[int, int]:
    """Split warps over (M, N), greedily along the dimension with more
    instruction tiles left — the standard warpsPerTile heuristic."""
    wm = wn = 1
    while wm * wn < num_warps:
        tiles_m = max(1, m // (tile_m * wm))
        tiles_n = max(1, n // (tile_n * wn))
        if tiles_m >= tiles_n and tiles_m > 1:
            wm *= 2
        elif tiles_n > 1:
            wn *= 2
        else:
            wm *= 2
    return wm, wn


class AnchorCatalog:
    """Anchor layout construction for one engine configuration.

    Stateless beyond ``(spec, num_warps)``; every result is memoized
    and treated as immutable by all consumers, so one catalog can be
    shared across compilations (and is, through :mod:`repro.cache`).
    """

    def __init__(self, spec: GpuSpec, num_warps: int):
        self.spec = spec
        self.num_warps = num_warps

    # ------------------------------------------------------------------
    # Blocked anchors (loads, stores)
    # ------------------------------------------------------------------
    def blocked_anchor(
        self, shape: Tuple[int, ...], dtype: DType
    ) -> Tuple[BlockedLayout, LinearLayout]:
        """The default blocked anchor, shared across compilations.

        Keyed on everything the construction reads: the tile shape,
        the element width, and the warp configuration.
        """

        def make() -> Tuple[BlockedLayout, LinearLayout]:
            desc = legacy_default_blocked(shape, dtype.bits, self.num_warps, self.spec.warp_size)
            return desc, desc.to_linear(shape).intern()

        return _cache.cached(
            _cache.engine,
            (
                "anchors",
                "blocked_anchor",
                tuple(shape),
                dtype.bits,
                self.num_warps,
                self.spec.warp_size,
            ),
            make,
        )

    # ------------------------------------------------------------------
    # MMA anchors (dot)
    # ------------------------------------------------------------------
    def mma_parent(self, m: int, n: int):
        """The accumulator layout for a dot of output shape (m, n)."""
        flavor = self.spec.mma_flavor
        if flavor == "mfma":
            wm, wn = balanced_warps(self.num_warps, m, n, 32, 32)
            return AmdMfmaLayout((wm, wn))
        if flavor == "wgmma" and m >= 64 and self.num_warps % 4 == 0:
            wm = 4
            wn = max(1, self.num_warps // 4)
            instr_n = min(max(8, n), 256)
            return WgmmaLayout((wm, wn), instr_n=instr_n)
        wm, wn = balanced_warps(self.num_warps, m, n, 16, 8)
        return NvidiaMmaLayout((wm, wn))

    def operand_descriptor(self, parent, op_idx: int, dtype: DType):
        """The fragment descriptor of one dot operand, or None when
        the operand is consumed straight from shared memory."""
        kwidth = mma_kwidth(dtype)
        if isinstance(parent, WgmmaLayout):
            if op_idx == 1:
                return None  # B comes straight from shared memory
            return WgmmaOperandLayout(parent, kwidth)
        if isinstance(parent, AmdMfmaLayout):
            # Modeled with the generic mma fragment on 64-lane warps
            # is out of scope; stage via shared like wgmma's B.
            return None
        return MmaOperandLayout(parent, op_idx, kwidth)

    def dot_anchors(self, a: Value, b: Value) -> Tuple[object, LinearLayout, tuple]:
        """Every anchor of a dot ``a @ b``, from one cache entry.

        Returns ``(parent, accumulator layout, operands)``: the MMA
        parent descriptor, the accumulator's linear layout, and one
        ``(descriptor, layout)`` pair per operand, ``(None, None)``
        when the operand is consumed straight from shared memory.
        """
        m, n = a.shape[0], b.shape[1]

        def operand(parent, idx: int, value: Value):
            desc = self.operand_descriptor(parent, idx, value.dtype)
            if desc is None:
                return None, None
            return desc, desc.to_linear(value.shape).intern()

        def make():
            parent = self.mma_parent(m, n)
            accumulator = parent.to_linear((m, n)).intern()
            return parent, accumulator, (operand(parent, 0, a), operand(parent, 1, b))

        return _cache.cached(
            _cache.engine,
            (
                "anchors",
                "dot",
                self.spec.mma_flavor,
                self.num_warps,
                tuple(a.shape),
                a.dtype.name,
                tuple(b.shape),
                b.dtype.name,
            ),
            make,
        )


class AnchorSelection(Pass):
    """Publish the anchor catalog and stamp load anchors.

    Loads are the only anchors whose layout can be assigned before
    propagation (their outputs exist in the input graph); dot anchors
    are queried from the catalog during forward propagation because
    operand staging rewrites the graph as it goes.
    """

    name = "anchor-selection"

    def run(self, ctx: CompilationContext, diag: PassDiagnostics) -> None:
        catalog = AnchorCatalog(ctx.spec, ctx.num_warps)
        ctx.anchors = catalog
        for op in ctx.graph.ops:
            if op.kind != OpKind.LOAD:
                continue
            desc, layout = catalog.blocked_anchor(op.output.shape, op.output.dtype)
            op.output.layout = layout
            op.output.descriptor = desc
            diag.bump("anchors_assigned")


__all__ = ["AnchorCatalog", "AnchorSelection", "balanced_warps"]
