"""GPU platform descriptions (Table 2 of the paper).

Only layout-relevant characteristics are modeled; clock rates and SM
counts are irrelevant because every comparison in the evaluation is a
ratio of data-movement costs on the *same* platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class GpuSpec:
    """Layout-relevant traits of a GPU platform.

    Attributes
    ----------
    warp_size:
        Threads per warp: 32 on NVIDIA, 64 on AMD wavefronts.
    num_banks / bank_bytes:
        Shared-memory geometry: 32 banks x 4 bytes on every platform
        modeled, so a full bank sweep is 128 bytes.
    max_vector_bits:
        Widest per-thread vector memory transaction (128 on all three).
    shuffle_bytes:
        Bytes exchanged per lane per shuffle instruction (4).
    has_ldmatrix / has_stmatrix:
        Availability of the warp-cooperative shared<->register tile
        instructions; their absence on MI250 explains the small AMD
        speedups in Figure 9 (Section 6.2).
    mma_flavor:
        "mma" (Ampere-class), "wgmma" (Hopper), or "mfma" (CDNA).
    """

    name: str
    warp_size: int
    num_banks: int
    bank_bytes: int
    max_vector_bits: int
    shuffle_bytes: int
    has_ldmatrix: bool
    has_stmatrix: bool
    mma_flavor: str
    shared_mem_bytes: int
    memory_desc: str

    # Cost-model constants (cycles).  Values follow published
    # microbenchmarks of instruction issue/latency ratios; only ratios
    # matter for the reproduced speedups.
    smem_access_cycles: int = 30
    gmem_transaction_cycles: int = 8
    shuffle_cycles: int = 2
    barrier_cycles: int = 30
    issue_cycles: int = 1
    alu_cycles: int = 4

    @property
    def bank_row_bytes(self) -> int:
        """Bytes covered by one conflict-free sweep over all banks."""
        return self.num_banks * self.bank_bytes

    def __hash__(self) -> int:
        # Specs key the engine and cost-model caches on every lookup;
        # equal specs share a name, so hashing the name alone keeps the
        # eq/hash contract without rehashing every field.
        return hash(self.name)

    def __str__(self) -> str:
        return (
            f"{self.name}: warp={self.warp_size}, "
            f"{self.num_banks}x{self.bank_bytes}B banks, "
            f"mma={self.mma_flavor}, ldmatrix={self.has_ldmatrix}, "
            f"stmatrix={self.has_stmatrix}, {self.memory_desc}"
        )


RTX4090 = GpuSpec(
    name="RTX4090",
    warp_size=32,
    num_banks=32,
    bank_bytes=4,
    max_vector_bits=128,
    shuffle_bytes=4,
    has_ldmatrix=True,
    has_stmatrix=False,
    mma_flavor="mma",
    shared_mem_bytes=100 * 1024,
    memory_desc="24GB GDDR6X (consumer GPU)",
)

GH200 = GpuSpec(
    name="GH200",
    warp_size=32,
    num_banks=32,
    bank_bytes=4,
    max_vector_bits=128,
    shuffle_bytes=4,
    has_ldmatrix=True,
    has_stmatrix=True,
    mma_flavor="wgmma",
    shared_mem_bytes=228 * 1024,
    memory_desc="80GB HBM2e (data center GPU)",
)

MI250 = GpuSpec(
    name="MI250",
    warp_size=64,
    num_banks=32,
    bank_bytes=4,
    max_vector_bits=128,
    shuffle_bytes=4,
    has_ldmatrix=False,
    has_stmatrix=False,
    mma_flavor="mfma",
    shared_mem_bytes=64 * 1024,
    memory_desc="64GB HBM2 (data center GPU)",
)

PLATFORMS: Dict[str, GpuSpec] = {
    spec.name: spec for spec in (RTX4090, GH200, MI250)
}


def get_platform(name: str) -> GpuSpec:
    """Look up a platform by its Table 2 name."""
    try:
        return PLATFORMS[name]
    except KeyError:
        raise KeyError(
            f"unknown platform {name!r}; choose from {sorted(PLATFORMS)}"
        ) from None


def check_num_warps(num_warps: int) -> int:
    """``num_warps`` if it is a positive power-of-two ``int``.

    Raises :class:`ValueError` otherwise, ``bool`` included.  Any other
    count fails deep inside compilation (``0`` divides by zero),
    silently builds anchors for another warp count, or runs a
    simulated CTA of the wrong size.
    """
    if (
        not isinstance(num_warps, int)
        or isinstance(num_warps, bool)
        or num_warps < 1
        or num_warps & (num_warps - 1)
    ):
        raise ValueError(f"num_warps must be a positive power of two: {num_warps!r}")
    return num_warps
