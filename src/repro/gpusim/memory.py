"""Banked shared memory with wavefront accounting.

Models the geometry every platform in Table 2 shares: 32 banks of 4
bytes, 128-byte transactions.  A warp instruction costs the largest
number of distinct 4-byte words any one bank must serve: a vector
wider than a 128-byte transaction sweeps distinct words, and same-word
broadcast is free on loads, which is how real hardware behaves and
what Lemma 9.4 predicts.

One dense counter, :func:`instruction_wavefronts`, prices every shared
access: a row per lockstep warp instruction, a column per lane.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.spec import GpuSpec


def instruction_wavefronts(
    spec: GpuSpec, elem_bytes: int, offset: np.ndarray, count
) -> np.ndarray:
    """Wavefronts of each of many lockstep warp instructions.

    Row ``i`` of the ``(rows, lanes)`` array ``offset`` is one warp
    instruction (a (warp, slot) of an STS/LDS, a (register, warp) of a
    gather load): lane ``l`` moves ``count[i, l]`` elements from element
    offset ``offset[i, l]``, none when the count is 0 (``count``
    broadcasts against ``offset``).  Returns one count per row.

    Each lane expands to the words it sweeps, ``-1`` past its end; each
    row is sorted on its own, so a word unlike its left neighbour is a
    distinct word, and one ``bincount`` tallies those per (row, bank).
    The power-of-two bank geometry is applied with shifts and masks.
    """
    rows = offset.shape[0]
    banks = spec.num_banks
    word_shift = spec.bank_bytes.bit_length() - 1
    start = offset * elem_bytes
    first = start >> word_shift
    spans = np.where(
        count > 0,
        ((start + count * elem_bytes - 1) >> word_shift) - first + 1,
        0,
    )
    sweep = int(spans.max(initial=0))
    if sweep == 0:
        return np.zeros(rows, dtype=np.int64)
    step = np.arange(sweep)
    words = np.where(
        step < spans[..., None], first[..., None] + step, -1
    ).reshape(rows, -1)
    words.sort(axis=1)
    fresh = np.empty(words.shape, dtype=bool)
    fresh[:, 0] = words[:, 0] >= 0
    np.not_equal(words[:, 1:], words[:, :-1], out=fresh[:, 1:])
    row_bank = (words & (banks - 1)) + (np.arange(rows) * banks)[:, None]
    per_bank = np.bincount(
        np.where(fresh, row_bank, rows * banks).ravel(),
        minlength=rows * banks + 1,
    )
    return per_bank[:-1].reshape(rows, banks).max(axis=1)


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
    threads = num_warps * ws
    accesses = accesses.leading(threads)
    slots = accesses.max_accesses
    base, width = accesses.base, accesses.width
    if accesses.num_threads < threads:  # absent threads move nothing
        pad = ((0, threads - accesses.num_threads), (0, 0))
        base, width = np.pad(base, pad), np.pad(width, pad)

    def rows(table: np.ndarray) -> np.ndarray:  # -> (warp, slot) x lane
        table = table.reshape(num_warps, ws, slots).transpose(0, 2, 1)
        return table.reshape(num_warps * slots, ws)

    return instruction_wavefronts(
        spec, elem_bytes, rows(base), rows(width)
    ).reshape(num_warps, slots)


def matrix_instructions(accesses, elem_bytes: int) -> int:
    """ld/stmatrix instructions moving a step: 16 bytes per lane each."""
    return max(1, (accesses.max_elements() * elem_bytes + 15) // 16)
