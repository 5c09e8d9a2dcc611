"""The warp-program instruction IR.

One algebraic object (an F2 linear map) drives all of codegen; this
module gives its *lowered* form an equally unified shape: a
:class:`WarpProgram` is a straight-line stream of typed warp-wide
instructions with explicit register-file and shared-memory operands.
Every backend concern consumes the same stream:

- execution — :mod:`repro.program.interp` moves real values through
  simulated register files and banked shared memory;
- pricing — :func:`repro.gpusim.opcost.price_program` turns the
  stream into priced :class:`~repro.hardware.instructions.Instruction`
  records, so simulated cycles and static op counts cannot diverge;
- serialization — :mod:`repro.program.serialize` round-trips it
  through JSON.

Register operands name *register spaces* (whole per-thread register
files): ``"in"`` holds the source distributed tensor, ``"out"`` the
destination, ``"idx"`` gather indices.  Individual registers are
indices into a space, as the instructions' routing tables encode
them.  Shared-memory operands are element offsets — the
bank-relevant addresses the cost model measures wavefronts on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.codegen.access import SharedAccesses
from repro.core.layout import LinearLayout

#: Conventional register-space names.
R_IN = "in"
R_OUT = "out"
R_IDX = "idx"


class Opcode(enum.Enum):
    """The warp-level instruction classes of the program IR."""

    SHFL = "shfl"
    MOVR = "movr"
    STS = "sts"
    LDS = "lds"
    BAR = "bar"
    GATHER_SHFL = "gather_shfl"
    GATHER_STS = "gather_sts"
    GATHER_LDS = "gather_lds"


def _frozen_int64(value, ndim: int, name: str) -> np.ndarray:
    """``value`` as a read-only int64 array of ``ndim`` axes.

    An array that is already read-only int64 is kept as it is (the
    planner hands in row views of its read-only round tables); anything
    else is copied, so the instruction owns its operands.
    """
    arr = np.asarray(value, dtype=np.int64)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} axes, got {arr.shape}")
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Shfl:
    """One ``shfl.sync`` round (Section 5.4, Figure 4).

    Per destination lane ``l``: ``src_lane[l]`` is the lane whose
    value arrives, ``send_regs[src_lane[l]]`` the registers the source
    lane contributes, ``recv_regs[l]`` where lane ``l`` stores them.
    ``insts`` is the real instruction count of the round (a vectorized
    payload wider than the 32-bit shuffle word issues several).

    The routing operands are read-only int64 arrays: ``src_lane`` of
    shape ``(lanes,)``, ``send_regs`` and ``recv_regs`` of shape
    ``(lanes, vec)``.  Nested tuples are accepted and converted.  The
    value compares and hashes by the arrays' shapes and bytes.
    """

    src_lane: np.ndarray
    send_regs: np.ndarray
    recv_regs: np.ndarray
    warps: int
    insts: int = 1
    src: str = R_IN
    dst: str = R_OUT

    opcode = Opcode.SHFL

    def __post_init__(self):
        for name, ndim in (
            ("src_lane", 1), ("send_regs", 2), ("recv_regs", 2)
        ):
            arr = _frozen_int64(getattr(self, name), ndim, name)
            object.__setattr__(self, name, arr)

    def _identity(self) -> Tuple:
        return (
            self.send_regs.shape,
            self.recv_regs.shape,
            self.src_lane.tobytes(),
            self.send_regs.tobytes(),
            self.recv_regs.tobytes(),
            self.warps,
            self.insts,
            self.src,
            self.dst,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Shfl):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __reduce__(self):
        return (Shfl, tuple(getattr(self, f.name) for f in fields(self)))

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Optional[str]:
        return self.dst

    def describe(self) -> str:
        lanes = len(self.src_lane)
        crossing = int(np.count_nonzero(self.src_lane != np.arange(lanes)))
        return (
            f"shfl {self.src}->{self.dst}: {lanes} lanes "
            f"({crossing} crossing), {self.insts} inst"
        )


@dataclass(frozen=True)
class MovR:
    """Register select/move (``prmt``-class data movement, free).

    ``dst_to_src[r]`` names the source register whose value lands in
    destination register ``r``.  A non-injective table is a broadcast
    fan-out (select/broadcast); the instruction writes a fresh file,
    so it also models register-permute renaming.  Applies to lanes
    ``< lanes`` of warps ``< warps``.
    """

    dst_to_src: Tuple[int, ...]
    lanes: int
    warps: int
    src: str = R_IN
    dst: str = R_OUT

    opcode = Opcode.MOVR

    def __post_init__(self):
        for r in self.dst_to_src:
            if r < 0:
                raise ValueError(f"negative source register {r}")

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Optional[str]:
        return self.dst

    def describe(self) -> str:
        moved = sum(
            1 for d, s in enumerate(self.dst_to_src) if d != s
        )
        return (
            f"movr {self.src}->{self.dst}: {len(self.dst_to_src)} regs, "
            f"{moved} moved"
        )


@dataclass(frozen=True)
class Sts:
    """Per-lane vectorized stores to shared memory (``st.shared``).

    ``accesses`` (:class:`~repro.codegen.access.SharedAccesses`)
    carries each thread's bank-relevant element addresses and
    registers; entry ``k`` across lanes forms one lockstep warp
    instruction.
    """

    accesses: SharedAccesses
    elem_bytes: int
    use_stmatrix: bool = False
    src: str = R_IN

    opcode = Opcode.STS

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Optional[str]:
        return None

    def describe(self) -> str:
        return _describe_shared("sts", self, self.use_stmatrix)


@dataclass(frozen=True)
class Lds:
    """Per-lane vectorized loads from shared memory (``ld.shared``)."""

    accesses: SharedAccesses
    elem_bytes: int
    use_ldmatrix: bool = False
    dst: str = R_OUT

    opcode = Opcode.LDS

    def reads(self) -> Tuple[str, ...]:
        return ()

    def writes(self) -> Optional[str]:
        return self.dst

    def describe(self) -> str:
        return _describe_shared("lds", self, self.use_ldmatrix)


@dataclass(frozen=True)
class Bar:
    """A CTA-wide ``bar.sync``."""

    opcode = Opcode.BAR

    def reads(self) -> Tuple[str, ...]:
        return ()

    def writes(self) -> Optional[str]:
        return None

    def describe(self) -> str:
        return "bar"


@dataclass(frozen=True)
class GatherShfl:
    """Data-dependent warp-shuffle gather (Section 5.5).

    The source lane/register of each output slot depends on the index
    *values*, so the routing is resolved at execution time from the
    layout; ``shuffle_count`` is the static instruction count:
    ``2^{|L_Thr^axis|}`` rounds for each register slot.
    """

    layout: LinearLayout
    axis: int
    shuffle_count: int
    src: str = R_IN
    index: str = R_IDX
    dst: str = R_OUT

    opcode = Opcode.GATHER_SHFL

    def reads(self) -> Tuple[str, ...]:
        return (self.src, self.index)

    def writes(self) -> Optional[str]:
        return self.dst

    def describe(self) -> str:
        return (
            f"gather_shfl {self.src}[{self.index}]->{self.dst}: "
            f"axis={self.axis}, {self.shuffle_count} shfl"
        )


@dataclass(frozen=True)
class GatherSts:
    """Stage a whole distributed tensor at its flattened offsets.

    The store half of the legacy shared-memory gather: every slot of
    ``src`` lands at its flat logical position.
    """

    layout: LinearLayout
    elem_bytes: int = 4
    src: str = R_IN

    opcode = Opcode.GATHER_STS

    def reads(self) -> Tuple[str, ...]:
        return (self.src,)

    def writes(self) -> Optional[str]:
        return None

    def describe(self) -> str:
        return f"gather_sts {self.src}: {self.layout.total_out_bits()}b"


@dataclass(frozen=True)
class GatherLds:
    """Data-dependent scalar gathered loads from shared memory.

    Addresses come from the just-computed index values, so the loads
    are dependent (full latency) and bank behaviour is measured on the
    actual per-warp addresses.
    """

    layout: LinearLayout
    axis: int
    elem_bytes: int = 4
    index: str = R_IDX
    dst: str = R_OUT

    opcode = Opcode.GATHER_LDS

    def reads(self) -> Tuple[str, ...]:
        return (self.index,)

    def writes(self) -> Optional[str]:
        return self.dst

    def describe(self) -> str:
        return f"gather_lds [{self.index}]->{self.dst}: axis={self.axis}"


#: Union of the instruction types (typing alias; isinstance checks
#: dispatch on ``opcode`` instead).
Instr = object

_OPCODE_TO_CLASS = {
    Opcode.SHFL: Shfl,
    Opcode.MOVR: MovR,
    Opcode.STS: Sts,
    Opcode.LDS: Lds,
    Opcode.BAR: Bar,
    Opcode.GATHER_SHFL: GatherShfl,
    Opcode.GATHER_STS: GatherSts,
    Opcode.GATHER_LDS: GatherLds,
}


def instr_class(opcode: Opcode):
    """The dataclass implementing one opcode."""
    return _OPCODE_TO_CLASS[opcode]


def instr_fields(instr) -> Dict[str, object]:
    """The operand fields of an instruction, by name."""
    return {f.name: getattr(instr, f.name) for f in fields(instr)}


@dataclass
class WarpProgram:
    """A straight-line warp program.

    ``result`` names the register space holding the output when the
    stream finishes (``"in"`` for a no-op program).  ``label`` is a
    human-readable provenance tag (the plan kind, the gather flavor).

    The program object doubles as the memoization site for derived
    execution artifacts (vectorized index plans, the machine's priced
    records) — see :attr:`scratch`; those never affect equality or
    serialization.
    """

    instrs: Tuple[Instr, ...]
    result: str = R_OUT
    label: str = ""
    #: Backend scratch: compiled index plans and cached priced
    #: records, keyed by the consumer.  Not part of program
    #: identity.
    scratch: Dict[object, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def spaces(self) -> Tuple[str, ...]:
        """Every register space the program references, in order."""
        seen = []
        for instr in self.instrs:
            for name in (*instr.reads(), instr.writes()):
                if name is not None and name not in seen:
                    seen.append(name)
        if self.result not in seen:
            seen.append(self.result)
        return tuple(seen)

    def num_regs(self, space: str) -> int:
        """Registers a space must hold to run this program.

        The maximum register index any instruction reads from or
        writes to the space, plus one (zero when untouched).
        Memoized in :attr:`scratch` — access lists can be large and
        the interpreter asks on every run.
        """
        key = ("nregs", space)
        cached = self.scratch.get(key)
        if cached is not None:
            return cached
        hi = -1
        for instr in self.instrs:
            op = instr.opcode
            if op == Opcode.SHFL:
                if instr.src == space:
                    hi = max(hi, int(instr.send_regs.max(initial=-1)))
                if instr.dst == space:
                    hi = max(hi, int(instr.recv_regs.max(initial=-1)))
            elif op == Opcode.MOVR:
                if instr.src == space:
                    hi = max(hi, max(instr.dst_to_src, default=-1))
                if instr.dst == space:
                    hi = max(hi, len(instr.dst_to_src) - 1)
            elif op in (Opcode.STS, Opcode.LDS):
                touched = (
                    instr.src if op == Opcode.STS else instr.dst
                )
                if touched == space:
                    hi = max(hi, instr.accesses.max_reg())
        self.scratch[key] = hi + 1
        return hi + 1

    def describe(self) -> str:
        """A multi-line, human-readable rendering of the program."""
        header = f"WarpProgram[{self.label or 'anonymous'}] -> {self.result}"
        lines = [header]
        for i, instr in enumerate(self.instrs):
            lines.append(f"  {i}: {instr.describe()}")
        if not self.instrs:
            lines.append("  (empty)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<WarpProgram {self.label or 'anonymous'}: "
            f"{len(self.instrs)} instrs -> {self.result}>"
        )


def _describe_shared(mnemonic: str, instr, matrix: bool) -> str:
    acc = instr.accesses
    note = ", matrix" if matrix else ""
    return (
        f"{mnemonic}: {acc.num_threads} threads x {acc.max_accesses} "
        f"accesses, vec {acc.widest * instr.elem_bytes * 8}b{note}"
    )


__all__ = [
    "Bar",
    "GatherLds",
    "GatherShfl",
    "GatherSts",
    "Instr",
    "Lds",
    "MovR",
    "Opcode",
    "R_IDX",
    "R_IN",
    "R_OUT",
    "Shfl",
    "Sts",
    "WarpProgram",
    "instr_class",
    "instr_fields",
]
