"""Per-lane reference interpreter for warp programs.

:func:`repro.program.interp.run` executes a program with whole-warp
NumPy gathers and scatters.  This module keeps the historical per-lane
execution loops, one Python step per (warp, lane, register) slot over
a dict-backed :class:`SharedMemory`, as the differential-testing
oracle: :func:`run_reference` must give the same register files as
:class:`~repro.gpusim.Machine`, and pricing the wavefronts it measures
(every STS, LDS and gather load, counted per request by
``tests/bank_reference.py``) must give the same trace.  Only tests
import it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.codegen.views import DistributedView
from repro.core.dims import LANE, REGISTER, WARP
from repro.gpusim.opcost import price_program
from repro.gpusim.registers import RegisterFile
from repro.gpusim.trace import Trace
from repro.hardware.spec import GpuSpec
from repro.program.interp import _axis_field
from repro.program.ir import Opcode, R_IN, WarpProgram
from tests import bank_reference
from tests.layout_reference import flat_of, owner_of
from tests.register_reference import empty_file, write


class SharedMemory:
    """Element-addressed shared memory with byte-level bank modeling."""

    def __init__(self, spec: GpuSpec, elem_bytes: int):
        if elem_bytes < 1:
            raise ValueError("elem_bytes must be >= 1")
        self.spec = spec
        self.elem_bytes = elem_bytes
        self._data: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def write(self, offset: int, value: object) -> None:
        """Store a value at an element offset."""
        self._data[offset] = value

    def read(self, offset: int) -> object:
        """Load the value at an element offset; raises if unwritten."""
        if offset not in self._data:
            raise KeyError(f"shared read of unwritten offset {offset}")
        return self._data[offset]

    def __contains__(self, offset: int) -> bool:
        return offset in self._data

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    # Cost plane
    # ------------------------------------------------------------------
    def wavefronts(self, accesses: Sequence[Tuple[int, int]]) -> int:
        """Wavefronts for one warp-wide access.

        ``accesses`` is a list of ``(element_offset, num_elements)``
        per participating lane, counted by the scalar per-bank
        reference (:func:`tests.bank_reference.wavefronts`), not by the
        pricer's counter.  Loads and stores cost the same.
        """
        return bank_reference.wavefronts(self.spec, self.elem_bytes, accesses)


class ScalarInterpreter:
    """Per-lane reference execution of warp programs.

    Slow and obviously correct: every instruction is a Python loop
    over (warp, lane, register) slots, preserved verbatim from the
    original plan executor.
    """

    def __init__(self, spec: GpuSpec, num_warps: int):
        self.spec = spec
        self.num_warps = num_warps

    def run(
        self, program: WarpProgram, inputs: Dict[str, RegisterFile]
    ) -> Tuple[Dict[str, RegisterFile], Tuple[int, ...]]:
        """Execute; returns (register spaces, measured wavefronts), one
        count per STS, LDS and GATHER_LDS in program order."""
        measured: List[int] = []
        files: Dict[str, RegisterFile] = dict(inputs)
        anchor = next(iter(inputs.values()))
        dims = (anchor.num_warps, anchor.warp_size)
        memory: Optional[SharedMemory] = None
        for instr in program.instrs:
            op = instr.opcode
            if op == Opcode.MOVR:
                files[instr.dst] = self._movr(instr, files[instr.src], dims)
            elif op == Opcode.SHFL:
                if instr.dst not in files:
                    files[instr.dst] = empty_file(*dims)
                self._shfl(instr, files[instr.src], files[instr.dst])
            elif op == Opcode.STS:
                memory = SharedMemory(self.spec, instr.elem_bytes)
                measured.append(self._sts(instr, files[instr.src], memory))
            elif op == Opcode.LDS:
                if memory is None:
                    raise RuntimeError("LDS before any STS")
                out = empty_file(*dims)
                measured.append(self._lds(instr, out, memory))
                files[instr.dst] = out
            elif op == Opcode.GATHER_SHFL:
                files[instr.dst] = self._gather_shfl(
                    instr, files[instr.src], files[instr.index], dims
                )
            elif op == Opcode.GATHER_STS:
                memory = SharedMemory(self.spec, instr.elem_bytes)
                self._gather_sts(instr, files[instr.src], memory)
            elif op == Opcode.GATHER_LDS:
                if memory is None:
                    raise RuntimeError("GATHER_LDS before any store")
                out = empty_file(*dims)
                measured.append(
                    self._gather_lds(instr, out, files[instr.index], memory)
                )
                files[instr.dst] = out
            elif op != Opcode.BAR:  # pragma: no cover
                raise TypeError(f"unknown instruction {instr!r}")
        return files, tuple(measured)

    # -- conversion instructions ---------------------------------------
    def _movr(self, instr, src: RegisterFile, dims) -> RegisterFile:
        dst = empty_file(*dims)
        for w in range(instr.warps):
            for lane in range(instr.lanes):
                for new_reg, old_reg in enumerate(instr.dst_to_src):
                    write(dst, w, lane, new_reg, src.read(w, lane, old_reg))
        return dst

    def _shfl(self, instr, src: RegisterFile, dst: RegisterFile) -> None:
        for w in range(instr.warps):
            for lane, s_lane in enumerate(instr.src_lane):
                for s_reg, d_reg in zip(
                    instr.send_regs[s_lane], instr.recv_regs[lane]
                ):
                    write(dst, w, lane, d_reg, src.read(w, s_lane, s_reg))

    def _shared(self, instr, move) -> int:
        """Run ``move(w, lane, reg, offset)`` over every element of an
        STS/LDS in issue order; returns its measured wavefronts."""
        accesses = instr.accesses.to_tuples()
        for k in range(instr.accesses.max_accesses):
            for w in range(self.num_warps):
                for lane, base, regs in _requests(self.spec, accesses, w, k):
                    for j, reg in enumerate(regs):
                        move(w, lane, reg, base + j)
        return shared_wavefronts(
            self.spec, self.num_warps, instr.accesses, instr.elem_bytes
        )

    def _sts(self, instr, src: RegisterFile, memory: SharedMemory) -> int:
        def move(w, lane, reg, offset):
            memory.write(offset, src.read(w, lane, reg))

        return self._shared(instr, move)

    def _lds(self, instr, dst: RegisterFile, memory: SharedMemory) -> int:
        def move(w, lane, reg, offset):
            write(dst, w, lane, reg, memory.read(offset))

        return self._shared(instr, move)

    # -- gather instructions -------------------------------------------
    def _gather_shfl(
        self, instr, src: RegisterFile, index: RegisterFile, dims
    ) -> RegisterFile:
        layout = instr.layout
        view = DistributedView(layout)
        out = empty_file(*dims)
        regs = layout.in_dim_size(REGISTER)
        lanes = layout.in_dim_size(LANE)
        warps = layout.in_dim_size(WARP)
        for w in range(warps):
            for lane in range(lanes):
                for r in range(regs):
                    src_flat = _source_flat(instr, view, index, w, lane, r)
                    owner = owner_of(view, src_flat)
                    write(out,
                        w,
                        lane,
                        r,
                        src.read(
                            w,
                            owner.get(LANE, 0),
                            owner.get(REGISTER, 0),
                        ),
                    )
        return out

    def _gather_sts(
        self, instr, src: RegisterFile, memory: SharedMemory
    ) -> None:
        layout = instr.layout
        view = DistributedView(layout)
        for w in range(layout.in_dim_size(WARP)):
            for lane in range(layout.in_dim_size(LANE)):
                for r in range(layout.in_dim_size(REGISTER)):
                    p = flat_of(view, {REGISTER: r, LANE: lane, WARP: w})
                    memory.write(p, src.read(w, lane, r))

    def _gather_lds(
        self, instr, dst: RegisterFile, index: RegisterFile,
        memory: SharedMemory,
    ) -> int:
        layout = instr.layout
        view = DistributedView(layout)
        regs = layout.in_dim_size(REGISTER)
        lanes = layout.in_dim_size(LANE)
        warps = layout.in_dim_size(WARP)
        offsets = [
            [[0] * regs for _ in range(lanes)] for _ in range(warps)
        ]
        for w in range(warps):
            for lane in range(lanes):
                for r in range(regs):
                    src_flat = _source_flat(instr, view, index, w, lane, r)
                    offsets[w][lane][r] = src_flat
                    write(dst, w, lane, r, memory.read(src_flat))
        return bank_reference.gather_wavefronts(
            self.spec, instr.elem_bytes, offsets
        )


def _requests(spec, accesses, warp: int, k: int) -> List[Tuple]:
    """``(lane, base, regs)`` of warp ``warp``'s lanes with an access
    ``k`` in the tuple view ``accesses``."""
    ws = spec.warp_size
    out = []
    for lane in range(ws):
        tid = warp * ws + lane
        if tid >= len(accesses):
            continue
        lane_accesses = accesses[tid]
        if k < len(lane_accesses):
            base, regs = lane_accesses[k]
            out.append((lane, base, regs))
    return out


def shared_wavefronts(spec, num_warps: int, accesses, elem_bytes: int) -> int:
    """An STS/LDS's wavefronts over ``num_warps`` warps, counted one
    request at a time.

    Each (slot, warp) is one warp-wide access, counted by the scalar
    per-bank reference; the bill is each slot's worst warp, summed over
    the slots any warp uses and divided by their number (at least 1),
    or 0 when no slot is used.
    """
    tuples = accesses.to_tuples()
    worst = []
    for k in range(accesses.max_accesses):
        per_warp = [
            [(base, len(regs)) for _, base, regs in _requests(spec, tuples, w, k)]
            for w in range(num_warps)
        ]
        if any(per_warp):
            worst.append(
                max(
                    bank_reference.wavefronts(spec, elem_bytes, requests)
                    for requests in per_warp
                )
            )
    return max(1, sum(worst) // len(worst)) if worst else 0


def _source_flat(instr, view, index: RegisterFile, w, lane, r) -> int:
    """The flat source position slot (w, lane, r) of a gather reads;
    ``IndexError`` for an index outside the gathered axis."""
    shift, mask = _axis_field(instr.layout, instr.axis)
    size = (mask >> shift) + 1
    pos = int(index.read(w, lane, r))
    if not 0 <= pos < size:
        raise IndexError(
            f"gather index {pos} is out of bounds for axis {instr.axis} "
            f"with size {size} at (w={w}, l={lane}, r={r})"
        )
    here = flat_of(view, {REGISTER: r, LANE: lane, WARP: w})
    return (here & ~mask) | (pos << shift)


def run_reference(
    spec: GpuSpec,
    num_warps: int,
    program: WarpProgram,
    inputs: Dict[str, RegisterFile],
) -> Tuple[Dict[str, RegisterFile], Trace]:
    """(register spaces, trace) of a per-lane run.

    The trace is ``price_program(program, spec, num_warps, measured)``
    with the STS, LDS and gather-load wavefronts this interpreter
    counted one request at a time: the trace
    :meth:`Machine.run_program <repro.gpusim.Machine.run_program>` must
    return for the same run, though the machine counts its own.
    """
    files, measured = ScalarInterpreter(spec, num_warps).run(program, inputs)
    return files, price_program(program, spec, num_warps, measured)


def reference_conversion(spec: GpuSpec, num_warps: int, plan, src):
    """(dst registers, trace) of a conversion plan's per-lane run, as
    :meth:`Machine.run_conversion <repro.gpusim.Machine.run_conversion>`
    returns them."""
    program = plan.program
    if not program.instrs:
        return src.copy(), Trace(spec)
    files, trace = run_reference(spec, num_warps, program, {R_IN: src})
    return files[program.result], trace
