"""Scalar reference for shared-memory bank wavefronts.

:func:`repro.gpusim.memory.instruction_wavefronts` counts the
wavefronts of many warp instructions at once with array code.  This
module keeps the plain per-bank count, one request and one word at a
time, as the oracle both the dense counter's differential tests and
the per-lane interpreter (``tests/program_reference.py``) price with.
Only tests import it.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


def wavefronts(
    spec, elem_bytes: int, accesses: Iterable[Tuple[int, int]]
) -> int:
    """Distinct 4-byte words the busiest bank serves, one request at a time.

    ``accesses`` lists ``(element_offset, num_elements)`` per lane of
    one warp-wide access.
    """
    words_by_bank = {}
    for offset, count in accesses:
        start = offset * elem_bytes
        end = start + count * elem_bytes
        word0 = start // spec.bank_bytes
        word1 = (end + spec.bank_bytes - 1) // spec.bank_bytes
        for word in range(word0, word1):
            words_by_bank.setdefault(word % spec.num_banks, set()).add(word)
    return max((len(w) for w in words_by_bank.values()), default=0)


def gather_wavefronts(
    spec, elem_bytes: int, offsets: Sequence[Sequence[Sequence[int]]]
) -> int:
    """The gather-load metric over ``offsets[w][l][r]``: per register
    slot the worst warp (at least 1), averaged over slots."""
    regs = len(offsets[0][0]) if offsets and offsets[0] else 0
    worst = [
        max(
            1,
            max(
                (
                    wavefronts(spec, elem_bytes, [(o[r], 1) for o in warp])
                    for warp in offsets
                ),
                default=0,
            ),
        )
        for r in range(regs)
    ]
    return max(1, sum(worst) // max(1, regs))
