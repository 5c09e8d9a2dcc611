"""Blocked layouts (Proposition 4.6).

A blocked layout distributes a tensor over registers, lanes, and warps
with per-dimension counts and an *order* (``order[0]`` is the fastest
running dimension).  It is the workhorse layout for coalesced global
memory access (Figure 1, Layout A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.dims import LANE, REGISTER, WARP
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int
from repro.layouts.common import tile_to_shape
from repro.layouts.cta import CtaLayout


@dataclass(frozen=True)
class BlockedLayout:
    """Parameters of a blocked layout.

    Attributes
    ----------
    size_per_thread:
        Registers per thread in each dimension of the initial tile.
    threads_per_warp:
        Thread arrangement per warp, per dimension (product = warp
        size: 32 on NVIDIA, 64 on AMD).
    warps_per_cta:
        Warp arrangement per CTA, per dimension.
    order:
        ``order[0]`` is the fastest-running (contiguous) dimension.
    """

    size_per_thread: Tuple[int, ...]
    threads_per_warp: Tuple[int, ...]
    warps_per_cta: Tuple[int, ...]
    order: Tuple[int, ...]
    #: Optional CGA-level distribution (Hopper clusters); None means a
    #: single CTA.
    cta: Optional[CtaLayout] = None

    def __post_init__(self):
        rank = len(self.size_per_thread)
        for name in ("threads_per_warp", "warps_per_cta", "order"):
            if len(getattr(self, name)) != rank:
                raise DimensionError(f"{name} must have rank {rank}")
        if self.cta is not None and self.cta.rank != rank:
            raise DimensionError(f"cta layout must have rank {rank}")
        if sorted(self.order) != list(range(rank)):
            raise DimensionError(f"order {self.order} is not a permutation")
        for seq in (
            self.size_per_thread,
            self.threads_per_warp,
            self.warps_per_cta,
        ):
            for v in seq:
                log2_int(v)

    @property
    def rank(self) -> int:
        """Tensor rank the layout applies to."""
        return len(self.size_per_thread)

    def tile_shape(self) -> List[int]:
        """The shape of the initial (unreplicated) tile."""
        return [
            r * t * w
            for r, t, w in zip(
                self.size_per_thread,
                self.threads_per_warp,
                self.warps_per_cta,
            )
        ]

    def num_warps(self) -> int:
        """Total warps per CTA."""
        n = 1
        for w in self.warps_per_cta:
            n *= w
        return n

    def threads_per_warp_total(self) -> int:
        """Total threads per warp (32 on NVIDIA, 64 on AMD)."""
        n = 1
        for t in self.threads_per_warp:
            n *= t
        return n

    def to_linear(self, shape: Sequence[int]) -> LinearLayout:
        """The linear layout for a tensor of ``shape`` (Prop. 9.1).

        The product id_R^o x id_T^o x id_W^o following the order,
        fitted to the tensor shape with the legacy tiling semantics,
        written down column by column: each dim's output bits are
        taken low to high by its register, then lane, then warp bits
        (:func:`~repro.layouts.common.tile_to_shape` on an empty tile).
        """
        if len(shape) != self.rank:
            raise DimensionError(
                f"shape rank {len(shape)} != layout rank {self.rank}"
            )
        per_cta_shape = (
            self.cta.split_shape(shape) if self.cta is not None
            else list(shape)
        )
        empty = LinearLayout.from_flat(
            {}, {f"dim{dim}": 1 for dim in range(self.rank)}
        )
        stack = {
            in_dim: [
                dim
                for dim in self.order
                for _ in range(log2_int(counts[dim]))
            ]
            for in_dim, counts in (
                (REGISTER, self.size_per_thread),
                (LANE, self.threads_per_warp),
                (WARP, self.warps_per_cta),
            )
        }
        per_cta = tile_to_shape(empty, per_cta_shape, self.order, stack)
        if self.cta is None or self.cta.is_trivial():
            return per_cta
        return self.cta.lift(per_cta, shape)

    def __str__(self) -> str:
        return (
            f"blocked(sizePerThread={list(self.size_per_thread)}, "
            f"threadsPerWarp={list(self.threads_per_warp)}, "
            f"warpsPerCTA={list(self.warps_per_cta)}, "
            f"order={list(self.order)})"
        )


def default_blocked_layout(
    shape: Sequence[int],
    num_warps: int = 4,
    warp_size: int = 32,
    order: Sequence[int] = None,
) -> BlockedLayout:
    """The blocked layout Triton assigns to anchor ops by default.

    Mirrors the compiler's heuristic: fill the fastest dimension with
    threads first (for coalescing), then spread across the remaining
    dims; a single element per thread unless the fast dim is larger
    than the available threads.
    """
    rank = len(shape)
    if order is None:
        order = list(range(rank - 1, -1, -1))  # row-major: last fastest
    order = tuple(order)
    log_sizes = [log2_int(s) for s in shape]

    size_per_thread = [1] * rank
    threads = [1] * rank
    warps = [1] * rank

    remaining_threads = warp_size
    remaining = list(log_sizes)
    for dim in order:
        take = min(log2_int(remaining_threads), remaining[dim])
        threads[dim] = 1 << take
        remaining_threads >>= take
        remaining[dim] -= take
        if remaining_threads == 1:
            break
    remaining_warps = num_warps
    for dim in order:
        take = min(log2_int(remaining_warps), remaining[dim])
        warps[dim] = 1 << take
        remaining_warps >>= take
        remaining[dim] -= take
        if remaining_warps == 1:
            break
    # Leftover warps must go somewhere: stack them on the slowest dim.
    if remaining_warps > 1:
        warps[order[-1]] *= remaining_warps
    return BlockedLayout(
        size_per_thread=tuple(size_per_thread),
        threads_per_warp=tuple(threads),
        warps_per_cta=tuple(warps),
        order=order,
    )
