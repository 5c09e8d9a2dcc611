"""Dimension labels for the labeled vector spaces of linear layouts.

The paper labels input bits Reg/Thr/Wrp for distributed layouts and
Off for memory layouts (Sections 4.1-4.3).  We follow Triton
upstream's naming: ``register``, ``lane`` (thread within a warp),
``warp``, ``block`` (CTA), and ``offset`` for shared memory.  Output
dimensions of the logical tensor are named ``dim0``, ``dim1``, ...
"""

from __future__ import annotations

from typing import List

REGISTER = "register"
LANE = "lane"
WARP = "warp"
BLOCK = "block"
OFFSET = "offset"


def out_dim_names(rank: int) -> List[str]:
    """The logical tensor dim names for a tensor of the given rank."""
    if rank < 0:
        raise ValueError(f"rank must be non-negative, got {rank}")
    return [f"dim{i}" for i in range(rank)]
