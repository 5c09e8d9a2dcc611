"""Banked shared memory with wavefront accounting.

Models the geometry every platform in Table 2 shares: 32 banks of 4
bytes, 128-byte transactions.  A warp access is split into 128-byte
transactions (wide vectors span several), and within each transaction
the cost is the worst-case number of distinct words any bank must
serve — same-word broadcast is free on loads, which is how real
hardware behaves and what Lemma 9.4 predicts.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.spec import GpuSpec


def bank_wavefronts(
    spec: GpuSpec,
    elem_bytes: int,
    group: np.ndarray,
    offset: np.ndarray,
    count: np.ndarray,
    num_groups: int,
) -> np.ndarray:
    """Wavefronts of many warp-wide accesses at once.

    Request ``i`` moves ``count[i]`` elements from element offset
    ``offset[i]`` and belongs to warp access ``group[i]``.  Each
    access costs the largest number of distinct 4-byte words any one
    bank must serve: a vector wider than a 128-byte transaction sweeps
    distinct words, and same-word broadcast is free, which is how real
    hardware behaves and what Lemma 9.4 predicts.  Returns one count
    per group, 0 for a group without requests.

    Every request expands to the words it sweeps, keyed by ``(group,
    word)``; sorting the keys and keeping each first occurrence leaves
    the distinct words, which one ``bincount`` tallies per bank.
    """
    banks = spec.num_banks
    out = np.zeros(num_groups, dtype=np.int64)
    if not len(offset):
        return out
    start = offset * elem_bytes
    word0 = start // spec.bank_bytes
    word1 = (
        start + count * elem_bytes + spec.bank_bytes - 1
    ) // spec.bank_bytes
    spans = word1 - word0
    req = np.repeat(np.arange(len(spans)), spans)
    first = np.cumsum(spans) - spans
    words = word0[req] + np.arange(len(req)) - first[req]
    stride = int(words.max()) + 1
    keys = np.sort(group[req] * stride + words)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    owner = keys // stride
    bank = (keys - owner * stride) % banks
    per_bank = np.bincount(
        owner * banks + bank, minlength=num_groups * banks
    )
    return per_bank.reshape(num_groups, banks).max(axis=1)


def access_wavefronts(
    accesses, spec: GpuSpec, elem_bytes: int, num_warps: int
) -> np.ndarray:
    """Per-warp wavefronts of every access slot of a shared step.

    ``accesses`` is a :class:`~repro.codegen.access.SharedAccesses`,
    read through its first ``num_warps`` warps' rows alone; entry
    ``[w, k]`` of the ``(num_warps, slots)`` result is the cost of warp
    ``w``'s lockstep instruction ``k`` (0 when none of its lanes has
    that access), over the slots those rows use.  Threads are numbered
    ``warp * spec.warp_size + lane``.
    """
    ws = spec.warp_size
    accesses = accesses.leading(num_warps * ws)
    slots = accesses.max_accesses
    width = accesses.width
    tid, k = np.nonzero(width)
    return bank_wavefronts(
        spec,
        elem_bytes,
        (tid // ws) * slots + k,
        accesses.base[tid, k],
        width[tid, k],
        num_warps * slots,
    ).reshape(num_warps, slots)


def matrix_instructions(accesses, elem_bytes: int) -> int:
    """ld/stmatrix instructions moving a step: 16 bytes per lane each."""
    return max(1, (accesses.max_elements() * elem_bytes + 15) // 16)
