"""Instruction records and the SIMD tiles of Section 5.3.

A codegen plan is a sequence of :class:`Instruction` records; the
simulator executes them and the cost model prices them.  The *tiles*
below are the linear layouts that characterize when a SIMD
data-movement instruction applies (Theorem 5.1): an instruction with
tile ``T`` can lower a register<->memory map ``L`` iff ``L / T``
exists.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro import cache as _cache
from repro.core.dims import LANE, OFFSET, REGISTER
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


class InstructionKind(enum.Enum):
    """The instruction classes the cost model distinguishes."""

    GLOBAL_LOAD = "ld.global"
    GLOBAL_STORE = "st.global"
    SHARED_LOAD = "ld.shared"
    SHARED_STORE = "st.shared"
    LDMATRIX = "ldmatrix"
    STMATRIX = "stmatrix"
    SHUFFLE = "shfl.sync"
    BARRIER = "bar.sync"
    MMA = "mma"
    ALU = "alu"
    BYTE_PERM = "prmt"


@dataclass(frozen=True)
class Instruction:
    """One issued warp instruction.

    ``vector_bits`` is the per-lane access width for memory ops (the
    Table 3 "bitwidth" column); ``wavefronts`` is filled in by the
    shared-memory simulator when bank behaviour is known; ``count``
    batches identical instructions.

    Records are values: build them with :func:`instruction`, which
    hands every caller the one shared record of a field tuple.
    """

    kind: InstructionKind
    vector_bits: int = 32
    count: int = 1
    wavefronts: int = 1
    note: str = ""
    #: Dependent accesses (e.g. gather loads whose address comes from
    #: a just-computed value) pay full latency; independent accesses
    #: pipeline and pay only issue + bank service.
    dependent: bool = False


#: Distinct records the table holds before it starts over.
RECORD_TABLE_BOUND = 4096

_RECORDS: Dict[Tuple[object, ...], Instruction] = {}


def instruction(
    kind: InstructionKind,
    vector_bits: int = 32,
    count: int = 1,
    wavefronts: int = 1,
    note: str = "",
    dependent: bool = False,
) -> Instruction:
    """The shared :class:`Instruction` record with these fields.

    Every pricer emits through here, so a compile whose records were
    all seen before allocates none, and kept traces share them.  The
    table is a plain dict, not a :mod:`repro.cache` cache: a lookup
    takes no lock and reorders nothing (``docs/CACHING.md``).  It
    empties itself when a new record would pass
    :data:`RECORD_TABLE_BOUND`; a record it dropped stays a valid
    value.  With caching off (``REPRO_CACHE=0`` or
    :func:`repro.cache.disabled`) every call builds a fresh record.
    """
    if not _cache.enabled():
        return Instruction(kind, vector_bits, count, wavefronts, note, dependent)
    key = (kind, vector_bits, count, wavefronts, note, dependent)
    record = _RECORDS.get(key)
    if record is None:
        if len(_RECORDS) >= RECORD_TABLE_BOUND:
            _RECORDS.clear()
        record = _RECORDS.setdefault(
            key, Instruction(kind, vector_bits, count, wavefronts, note, dependent)
        )
    return record


def vector_shared_tile(vector_bits: int, elem_bits: int) -> LinearLayout:
    """The tile of a vectorized ``ld.shared``/``st.shared`` access.

    "The tile for vectorized shared memory instructions of size 2^n
    bits is given by the identity mapping from registers to memory
    offsets of size n x n" (Section 5.3) — n counted in elements.
    """
    elems = vector_bits // elem_bits
    if elems < 1:
        raise ValueError(
            f"vector of {vector_bits} bits cannot hold {elem_bits}-bit "
            "elements"
        )
    return LinearLayout.identity1d(elems, REGISTER, OFFSET)


def ldmatrix_tile(elem_bits: int) -> LinearLayout:
    """The ``ldmatrix`` tile (Section 5.3).

    Each thread handles 4 contiguous bytes and groups of 4 threads
    cover a 16-byte row segment: ``id_k^{Reg,Off} x id_2^{Thr,Off}``
    with ``k = log2(4 / w)`` for element byte-width ``w``.
    """
    elem_bytes = elem_bits // 8
    if elem_bytes < 1 or elem_bytes > 4:
        raise ValueError(
            f"ldmatrix supports 1..4 byte elements, got {elem_bits} bits"
        )
    k = log2_int(4 // elem_bytes) if elem_bytes < 4 else 0
    # The identity over k register bits, then 2 lane bits.
    return LinearLayout.from_flat(
        {REGISTER: [1 << i for i in range(k)], LANE: [1 << k, 2 << k]},
        {OFFSET: 4 << k},
        require_surjective=False,
    )
