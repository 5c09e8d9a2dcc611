"""The legacy (pre-linear-layout) Triton baseline.

This module reproduces — behaviourally, not by hard-coding table
entries — the limitations the paper measures against:

* per-kind interface methods with **no cross-kind comparison**, so a
  Blocked and a Sliced layout describing the same map still trigger a
  conversion (the welford case of Section 6.2);
* a hand-written **conversion support matrix** with the documented
  gaps (reductions over MMA-input and sliced-MMA layouts, custom
  layouts — the 0/10 rows of Table 4);
* **always-through-shared-memory** conversions with the padding
  heuristic (no warp shuffles, no optimal swizzling — Figures 2, 7);
* fastest-dimension-only **contiguity analysis** (Table 3);
* the **MMA constraints** on small shapes / low-precision dtypes
  ("Triton does not support any MMA layouts with more than 32-bit
  consecutive elements in the last dimension of the tile", Table 5);
* no duplicate elimination when spilling reduction partials
  (Table 4's instruction counts).
"""

from __future__ import annotations


from repro.core.errors import LegacyUnsupportedError
from repro.layouts.blocked import BlockedLayout
from repro.layouts.mfma import AmdMfmaLayout
from repro.layouts.mma import MmaOperandLayout, NvidiaMmaLayout
from repro.layouts.sliced import SlicedLayout
from repro.layouts.wgmma import WgmmaLayout, WgmmaOperandLayout
from repro.mxfp.types import DType, mma_kwidth


def layout_kind(desc: object) -> str:
    """The legacy system's notion of a layout's kind.

    Descriptors may declare an explicit ``legacy_kind`` attribute;
    anything unrecognized is ``custom`` — precisely the layouts that
    required modifying the legacy compiler to support (Section 1).
    """
    explicit = getattr(desc, "legacy_kind", None)
    if explicit is not None:
        return explicit
    if isinstance(desc, BlockedLayout):
        return "blocked"
    if isinstance(desc, (NvidiaMmaLayout, WgmmaLayout, AmdMfmaLayout)):
        return "mma"
    if isinstance(desc, (MmaOperandLayout, WgmmaOperandLayout)):
        return "mma_input"
    if isinstance(desc, SlicedLayout):
        return f"sliced<{layout_kind(desc.parent)}>"
    return "custom"


class LegacyLayoutSystem:
    """Queries answered the way legacy Triton answered them."""

    #: Conversion pairs the legacy backend implemented.  Everything
    #: else raised or miscompiled (Section 3: "conversions between
    #: layouts must be explicitly implemented for each layout").
    _SUPPORTED_CONVERSIONS = {
        ("blocked", "blocked"),
        ("blocked", "mma"),
        ("mma", "blocked"),
        ("blocked", "mma_input"),
        ("mma", "mma_input"),
        ("sliced<blocked>", "blocked"),
        ("blocked", "sliced<blocked>"),
        ("sliced<blocked>", "sliced<blocked>"),
        ("sliced<mma>", "blocked"),
        ("mma", "mma"),
    }

    #: Layout kinds whose reduction path the legacy backend
    #: implemented (Table 4: MMA-input and sliced-MMA reductions fail).
    _REDUCIBLE_KINDS = {
        "blocked",
        "mma",
        "sliced<blocked>",
    }

    def can_compare(self, a: object, b: object) -> bool:
        """Legacy layouts of different kinds cannot be compared, so an
        equivalent pair still goes through a conversion."""
        return layout_kind(a) == layout_kind(b)

    def supports_conversion(self, src: object, dst: object) -> bool:
        """True iff the legacy backend implemented this conversion pair."""
        pair = (layout_kind(src), layout_kind(dst))
        return pair in self._SUPPORTED_CONVERSIONS

    def check_conversion(self, src: object, dst: object) -> None:
        """Raise LegacyUnsupportedError for unimplemented pairs."""
        if not self.supports_conversion(src, dst):
            raise LegacyUnsupportedError(
                f"legacy Triton has no conversion "
                f"{layout_kind(src)} -> {layout_kind(dst)}"
            )

    def supports_reduction(self, desc: object) -> bool:
        """True iff legacy could lower a reduction over this layout kind."""
        return layout_kind(desc) in self._REDUCIBLE_KINDS

    def check_reduction(self, desc: object) -> None:
        """Raise LegacyUnsupportedError for unreducible layout kinds."""
        if not self.supports_reduction(desc):
            raise LegacyUnsupportedError(
                f"legacy Triton cannot reduce over a "
                f"{layout_kind(desc)} layout"
            )

    def supports_scan(
        self,
        desc: object,
        reverse: bool,
        has_duplicates: bool,
    ) -> bool:
        """The scan gates behind the bugs the paper cites.

        ``reverse=True`` scans returned incorrect results
        (triton-lang/triton#4362), and scans over layouts holding
        duplicated data combined replicas twice when mixed with
        reductions (triton-lang/triton#3017).  We count both
        miscompiles as failures.
        """
        if reverse or has_duplicates:
            return False
        return layout_kind(desc) in self._REDUCIBLE_KINDS

    def check_scan(
        self,
        desc: object,
        reverse: bool,
        has_duplicates: bool,
    ) -> None:
        """Raise LegacyUnsupportedError for miscompiled scan shapes."""
        if not self.supports_scan(desc, reverse, has_duplicates):
            raise LegacyUnsupportedError(
                f"legacy Triton miscompiles this scan "
                f"(layout={layout_kind(desc)}, reverse={reverse}, "
                f"duplicates={has_duplicates})"
            )

    def supports_mma_shape(
        self,
        a_dtype: DType,
        b_dtype: DType,
        shape_m: int,
        shape_n: int,
        shape_k: int,
    ) -> bool:
        """The Table 5 gate.

        Legacy Triton's MMA lowering assumed at most 32 bits of
        consecutive elements in the last tile dimension, and its
        small-shape handling required each operand tile to fill the
        full instruction tile.  Low-precision operands (kwidth > 1)
        on small K/N violate one or the other.
        """
        for dtype in (a_dtype, b_dtype):
            kwidth = mma_kwidth(dtype)
            consecutive_bits = kwidth * dtype.bits * 2
            if consecutive_bits > 32 and shape_k < 8 * kwidth * 2:
                return False
            # Small-shape gap: the operand tile (8 * kwidth along K)
            # must fit the tensor.
            if shape_k < 8 * kwidth:
                return False
        if shape_m < 16 or shape_n < 8:
            return False
        return True
