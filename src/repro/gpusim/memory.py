"""Banked shared memory with wavefront accounting.

Models the geometry every platform in Table 2 shares: 32 banks of 4
bytes, 128-byte transactions.  A warp instruction costs the largest
number of distinct 4-byte words any one bank must serve: a vector
wider than a 128-byte transaction sweeps distinct words, and same-word
broadcast is free on loads, which is how real hardware behaves and
what Lemma 9.4 predicts.

Two counters share that rule.  The dense one,
:func:`instruction_wavefronts`, takes a row per lockstep warp
instruction and a column per lane: the static pricer feeds it access
tables (:func:`access_wavefronts`) and the interpreter the addresses of
gather loads.  The interpreter measures each STS/LDS it ran with
:func:`executed_wavefronts`, on the element offsets it moved: a
full-width table's ``(slot, thread, element)`` grid, one sort per
(slot, warp) row, or a ragged table's flat offsets, one keyed sort.
The two are tested against each other and against a scalar per-bank
count.
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

    Each lane expands to the words it sweeps, ``-1`` past its end (no
    padding when every lane moves and sweeps as many words); each row
    is sorted on its own, so a word unlike its left neighbour is a
    distinct word, and one ``bincount`` tallies those per (row, bank).
    The power-of-two bank geometry is applied with shifts and masks.
    """
    rows = offset.shape[0]
    banks = spec.num_banks
    word_shift = spec.bank_bytes.bit_length() - 1
    # int64 bytes, whatever the offsets' dtype (an access table's are
    # int32, and int32 times a Python int stays int32).
    start = np.multiply(offset, elem_bytes, dtype=np.int64)
    first = start >> word_shift
    spans = ((start + count * elem_bytes - 1) >> word_shift) - first + 1
    live = count > 0
    if not np.all(live):
        spans = np.where(live, spans, 0)
    sweep = int(spans.max(initial=0))
    if sweep == 0:
        return np.zeros(rows, dtype=np.int64)
    step = np.arange(sweep)
    if int(spans.min()) == sweep:  # every lane live, sweeping alike
        words = first[..., None] + step
    else:
        words = np.where(step < spans[..., None], first[..., None] + step, -1)
    words = words.reshape(rows, -1)
    words.sort(axis=1)
    fresh = np.empty(words.shape, dtype=bool)
    fresh[:, 0] = words[:, 0] >= 0
    np.not_equal(words[:, 1:], words[:, :-1], out=fresh[:, 1:])
    words &= banks - 1  # now each word's (row, bank)
    words += (np.arange(rows) * banks)[:, None]
    per_bank = np.bincount(words[fresh], minlength=rows * banks)
    return per_bank.reshape(rows, banks).max(axis=1)


def executed_wavefronts(
    spec: GpuSpec, elem_bytes: int, offset: np.ndarray, moved=None
) -> int:
    """Billed wavefronts of an executed STS/LDS, from what it moved.

    ``offset`` holds the element offset of every element moved, in
    either form :meth:`~repro.codegen.access.SharedAccesses.elements`
    returns:

    - the ``(slot, thread, element)`` grid of a full-width table,
      whose warps are ``spec.warp_size`` threads each (``moved`` is
      not read);
    - flat, in issue order (access slot, then warp, then lane and
      element), with ``moved[k, w]`` counting warp ``w``'s elements in
      slot ``k``.

    Each (slot, warp) is one lockstep warp instruction, a row.  The
    bill is the one :func:`~repro.gpusim.opcost.price_program` computes
    from an access table: the sum of each slot's worst warp over the
    slots any warp uses, divided by their number, at least 1; 0 when
    no slot is used.

    A grid row is ``warp_size x vec`` element words (more when an
    element spans words), sorted on its own; a flat table keys every
    word by its row, so one sort of the keys puts each row's distinct
    words side by side.  Either way one ``bincount`` then tallies them
    per (row, bank).
    """
    if offset.size == 0:
        return 0
    banks = spec.num_banks
    word_shift = spec.bank_bytes.bit_length() - 1
    start = offset * elem_bytes
    words = start >> word_shift
    if spec.bank_bytes % elem_bytes:  # an element may span words
        last = (start + elem_bytes - 1) >> word_shift
        sweep = np.arange(int((last - words).max()) + 1)
        # A shorter span repeats its last word, which counts once.
        words = np.minimum(words[..., None] + sweep, last[..., None])
    if offset.ndim == 3:
        slots, threads = offset.shape[:2]
        ws = spec.warp_size
        warps = -(-threads // ws)
        words = words.reshape(slots, threads, -1)
        if threads < warps * ws:  # a partial last warp repeats a lane
            pad = ((0, 0), (0, warps * ws - threads), (0, 0))
            words = np.pad(words, pad, mode="edge")
        rows = slots * warps
        words = words.reshape(rows, -1)
        words.sort(axis=1)
        fresh = np.empty(words.shape, dtype=bool)
        fresh[:, 0] = True
        np.not_equal(words[:, 1:], words[:, :-1], out=fresh[:, 1:])
        words &= banks - 1  # now each word's (row, bank)
        words += (np.arange(rows) * banks)[:, None]
        tally = words[fresh]
        shape = (slots, warps)
    else:
        slots = int(np.count_nonzero(moved.any(axis=1)))
        row = np.repeat(np.arange(moved.size), moved.ravel())
        if words.ndim == 2:
            row = np.repeat(row, words.shape[1])
            words = words.ravel()
        bits = max(int(words.max()).bit_length(), banks.bit_length())
        key = (row << bits) | words
        key.sort()
        fresh = np.empty(key.size, dtype=bool)
        fresh[0] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        tally = (key >> bits) * banks + (key & (banks - 1))
        shape = moved.shape
    per_bank = np.bincount(tally, minlength=shape[0] * shape[1] * banks)
    worst = per_bank.reshape(*shape, banks).max(axis=2).max(axis=1)
    return max(1, int(worst.sum()) // slots)


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
