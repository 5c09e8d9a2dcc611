"""Bit-vector primitives for :math:`\\mathbb{F}_2` arithmetic.

A vector in :math:`\\mathbb{F}_2^n` is represented as a non-negative
Python integer whose bit ``i`` holds coordinate ``i``.  The least
significant bit is coordinate 0, matching the paper's convention that
"the least significant bits come first in the vector" (Section 4.1).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


def popcount(x: int) -> int:
    """Number of set bits (the Hamming weight of the vector)."""
    if x < 0:
        raise ValueError(f"bit-vectors must be non-negative, got {x}")
    return bin(x).count("1")


def iter_set_bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def is_power_of_two(x: int) -> bool:
    """True iff ``x`` is a positive power of two (including 2**0)."""
    return x > 0 and (x & (x - 1)) == 0


def log2_int(x: int) -> int:
    """Exact integer base-2 logarithm; raises for non-powers of two.

    Layout dimensions in Triton are restricted to powers of two
    (Section 4.1); this helper enforces that invariant at every
    construction site.
    """
    if not is_power_of_two(x):
        raise ValueError(f"expected a power of two, got {x}")
    return x.bit_length() - 1


def span_table(images: Sequence) -> np.ndarray:
    """Every XOR combination of ``images``, as int64.

    Entry ``m`` is the XOR of ``images[i]`` over the set bits ``i`` of
    ``m``; rows of a 2-D ``images`` combine elementwise, giving a
    ``(2 ** len(images), row)`` table.  Linearity gives ``f(m ^ 2^k) =
    f(m) ^ images[k]`` for ``m < 2^k``, so the table is built by
    XOR-doubling: O(N) array work, no per-element Python.
    """
    images = np.asarray(images, dtype=np.int64)
    table = np.zeros((1 << len(images),) + images.shape[1:], dtype=np.int64)
    size = 1
    for img in images:
        np.bitwise_xor(table[:size], img, out=table[size: 2 * size])
        size *= 2
    return table
