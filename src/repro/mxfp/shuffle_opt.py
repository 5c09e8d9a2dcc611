"""The data pre-shuffle optimization of Section 5.2 (Data Shuffling).

An ``mma``/``wgmma`` operand fragment gives each lane *two* runs along
K per instruction (positions ``[0, kwidth)`` and ``[4*kwidth,
5*kwidth)`` of its 8*kwidth-element K tile), so loads of the
low-precision operand vectorize only ``kwidth`` elements at a time.
Pre-shuffling the *other* (higher-precision) operand in HBM lets the
compiler feed the instruction from a permuted K order in which each
lane's fragment is contiguous — doubling (or more) the vector width of
the low-precision loads.

The Machete framework implements this in thousands of C++/CUTLASS
lines; with linear layouts it is a reshape/transpose/reshape on the
logical tensor — the "five lines of Python" the paper mentions —
because the layout engine propagates the permutation for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mxfp.types import DType, mma_kwidth


@dataclass(frozen=True)
class PreShuffleResult:
    """Outcome of the pre-shuffle analysis for an operand pair."""

    kwidth: int
    vector_bits_before: int
    vector_bits_after: int

    @property
    def speed_ratio(self) -> float:
        """Relative reduction in load instructions for the operand."""
        return self.vector_bits_after / self.vector_bits_before


def preshuffle_operand(w: np.ndarray, kwidth: int) -> np.ndarray:
    """Permute the K axis (axis 0) so lane fragments become contiguous.

    This is the whole optimization — the paper's five lines:
    """
    k, n = w.shape
    group = 8 * kwidth
    if k % group != 0:
        raise ValueError(f"K={k} must be a multiple of {group}")
    blocks = w.reshape(k // group, 2, 4, kwidth, n)
    shuffled = blocks.transpose(0, 2, 1, 3, 4)
    return shuffled.reshape(k, n)


def unshuffle_operand(w: np.ndarray, kwidth: int) -> np.ndarray:
    """The inverse permutation (used to verify the matmul result)."""
    k, n = w.shape
    group = 8 * kwidth
    blocks = w.reshape(k // group, 4, 2, kwidth, n)
    restored = blocks.transpose(0, 2, 1, 3, 4)
    return restored.reshape(k, n)


def fragment_positions(kwidth: int, lane_group: int = 0) -> list:
    """K positions one lane touches in one instruction K-tile.

    Two runs of ``kwidth``: the structure that limits vectorization
    before the shuffle.
    """
    base = lane_group * kwidth
    first = [base + j for j in range(kwidth)]
    second = [base + 4 * kwidth + j for j in range(kwidth)]
    return first + second


def operand_vector_bits(
    dtype: DType,
    preshuffled: bool,
    max_vector_bits: int = 128,
) -> int:
    """Vector width (bits) for loading the low-precision operand.

    Before the shuffle a lane can vectorize one ``kwidth`` run; after
    it both runs (and the runs of the subsequent K tile) are adjacent,
    up to the 128-bit cap.
    """
    kwidth = mma_kwidth(dtype)
    run_bits = kwidth * dtype.bits
    if not preshuffled:
        return min(run_bits, max_vector_bits)
    return min(4 * run_bits, max_vector_bits)


def analyze_pair(low: DType, preshuffled: bool = True) -> PreShuffleResult:
    """Vectorization gain for the low-precision operand of a pair."""
    kwidth = mma_kwidth(low)
    return PreShuffleResult(
        kwidth=kwidth,
        vector_bits_before=operand_vector_bits(low, False),
        vector_bits_after=operand_vector_bits(low, preshuffled),
    )


def preshuffle_register_table(num_regs: int, kwidth: int) -> tuple:
    """The pre-shuffle as a register permutation table.

    When a thread holds ``8 * kwidth`` consecutive K elements per
    group in its registers, :func:`preshuffle_operand`'s reshape /
    transpose / reshape is exactly this ``dst_to_src`` table: output
    register ``((c4 * 2 + c2) * kwidth + j)`` takes the value of input
    register ``((c2 * 4 + c4) * kwidth + j)``, tiled over groups.
    """
    group = 8 * kwidth
    if num_regs % group != 0:
        raise ValueError(
            f"{num_regs} registers is not a multiple of group {group}"
        )
    table = []
    for g in range(num_regs // group):
        base = g * group
        for c4 in range(4):
            for c2 in range(2):
                for j in range(kwidth):
                    table.append(base + (c2 * 4 + c4) * kwidth + j)
    return tuple(table)
