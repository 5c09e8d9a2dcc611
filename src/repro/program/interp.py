"""Warp-program interpreters: one scalar oracle, one vectorized.

Both interpreters execute the same instruction stream with the same
observable semantics: real data movement through register files and
banked shared memory.  They only move data; pricing is
:func:`repro.gpusim.opcost.price_program`'s job.  The one cost input
an interpreter alone can supply is the bank behaviour of gather
loads, whose addresses depend on the index values: ``run`` returns
the measured wavefronts of each ``GATHER_LDS`` (through the shared
:func:`gather_lds_wavefronts`) next to the register spaces.

The scalar interpreter is a direct port of the historical per-lane
execution loops and serves as the differential-testing oracle; the
vectorized interpreter compiles each instruction's routing tables
into NumPy index arrays once (cached on the program) and then moves
whole warps per instruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dims import LANE, REGISTER, WARP
from repro.codegen.views import DistributedView, slot_table
from repro.gpusim.memory import SharedMemory, bank_wavefronts
from repro.gpusim.registers import RegisterFile
from repro.hardware.spec import GpuSpec
from repro.program.ir import Opcode, WarpProgram


# ----------------------------------------------------------------------
# Gather geometry shared by both backends
# ----------------------------------------------------------------------
def _axis_field(layout, axis: int) -> Tuple[int, int]:
    """(shift, mask) of the gather axis inside the row-major flatten."""
    names = list(layout.out_dims)
    shift = sum(
        layout.out_dim_size_log2(name) for name in names[axis + 1 :]
    )
    bits = layout.out_dim_size_log2(names[axis])
    return shift, ((1 << bits) - 1) << shift


def gather_lds_wavefronts(
    spec: GpuSpec,
    elem_bytes: int,
    offsets,
    warps: int,
    lanes: int,
    regs: int,
) -> int:
    """Measured wavefronts of the data-dependent gathered loads.

    ``offsets[w][l][r]`` (any indexable) holds the flat source
    offsets; the metric is the historical one — per register slot the
    worst warp, averaged over slots.
    """
    table = np.asarray(offsets, dtype=np.int64)[:warps, :lanes, :regs]
    group = np.arange(regs) * warps + np.arange(warps)[:, None, None]
    per_slot = bank_wavefronts(
        spec,
        elem_bytes,
        np.broadcast_to(group, table.shape).ravel(),
        table.ravel(),
        np.ones(table.size, dtype=np.int64),
        regs * warps,
    ).reshape(regs, warps)
    worst = np.maximum(per_slot.max(axis=1, initial=0), 1)
    return max(1, int(worst.sum()) // max(1, regs))


# ----------------------------------------------------------------------
# Scalar oracle
# ----------------------------------------------------------------------
class ScalarInterpreter:
    """Per-lane reference execution of warp programs.

    Slow and obviously correct: every instruction is a Python loop
    over (warp, lane, register) slots, preserved verbatim from the
    original plan executor.  Used as the differential-testing oracle
    for the vectorized backend.
    """

    backend = "scalar"

    def __init__(self, spec: GpuSpec, num_warps: int):
        self.spec = spec
        self.num_warps = num_warps

    def run(
        self, program: WarpProgram, inputs: Dict[str, RegisterFile]
    ) -> Tuple[Dict[str, RegisterFile], Tuple[int, ...]]:
        """Execute; returns (register spaces, gather-load wavefronts)."""
        gather_wavefronts: List[int] = []
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
                    files[instr.dst] = RegisterFile(*dims)
                self._shfl(instr, files[instr.src], files[instr.dst])
            elif op == Opcode.STS:
                memory = SharedMemory(self.spec, instr.elem_bytes)
                self._sts(instr, files[instr.src], memory)
            elif op == Opcode.LDS:
                if memory is None:
                    raise RuntimeError("LDS before any STS")
                out = RegisterFile(*dims)
                self._lds(instr, out, memory)
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
                out = RegisterFile(*dims)
                gather_wavefronts.append(
                    self._gather_lds(instr, out, files[instr.index], memory)
                )
                files[instr.dst] = out
            elif op != Opcode.BAR:  # pragma: no cover
                raise TypeError(f"unknown instruction {instr!r}")
        return files, tuple(gather_wavefronts)

    # -- conversion instructions ---------------------------------------
    def _movr(self, instr, src: RegisterFile, dims) -> RegisterFile:
        dst = RegisterFile(*dims)
        for w in range(instr.warps):
            for lane in range(instr.lanes):
                for new_reg, old_reg in enumerate(instr.dst_to_src):
                    dst.write(w, lane, new_reg, src.read(w, lane, old_reg))
        return dst

    def _shfl(self, instr, src: RegisterFile, dst: RegisterFile) -> None:
        for w in range(instr.warps):
            for lane, s_lane in enumerate(instr.src_lane):
                for s_reg, d_reg in zip(
                    instr.send_regs[s_lane], instr.recv_regs[lane]
                ):
                    dst.write(w, lane, d_reg, src.read(w, s_lane, s_reg))

    def _requests(self, accesses, warp: int, k: int) -> List[Tuple]:
        ws = self.spec.warp_size
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

    def _sts(self, instr, src: RegisterFile, memory: SharedMemory) -> None:
        accesses = instr.accesses.to_tuples()
        for k in range(instr.accesses.max_accesses):
            for w in range(self.num_warps):
                for lane, base, regs in self._requests(accesses, w, k):
                    for j, reg in enumerate(regs):
                        memory.write(base + j, src.read(w, lane, reg))

    def _lds(self, instr, dst: RegisterFile, memory: SharedMemory) -> None:
        accesses = instr.accesses.to_tuples()
        for k in range(instr.accesses.max_accesses):
            for w in range(self.num_warps):
                for lane, base, regs in self._requests(accesses, w, k):
                    for j, reg in enumerate(regs):
                        dst.write(w, lane, reg, memory.read(base + j))

    # -- gather instructions -------------------------------------------
    def _gather_shfl(
        self, instr, src: RegisterFile, index: RegisterFile, dims
    ) -> RegisterFile:
        layout = instr.layout
        view = DistributedView(layout)
        out = RegisterFile(*dims)
        regs = layout.in_dim_size(REGISTER)
        lanes = layout.in_dim_size(LANE)
        warps = layout.in_dim_size(WARP)
        shift, mask = _axis_field(layout, instr.axis)
        for w in range(warps):
            for lane in range(lanes):
                for r in range(regs):
                    pos = index.read(w, lane, r)
                    here = view.flat_of(
                        {REGISTER: r, LANE: lane, WARP: w}
                    )
                    src_flat = (here & ~mask) | (int(pos) << shift)
                    owner = view.owner_of(src_flat)
                    out.write(
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
                    p = view.flat_of({REGISTER: r, LANE: lane, WARP: w})
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
        shift, mask = _axis_field(layout, instr.axis)
        offsets = [
            [[0] * regs for _ in range(lanes)] for _ in range(warps)
        ]
        for w in range(warps):
            for lane in range(lanes):
                for r in range(regs):
                    pos = index.read(w, lane, r)
                    here = view.flat_of(
                        {REGISTER: r, LANE: lane, WARP: w}
                    )
                    src_flat = (here & ~mask) | (int(pos) << shift)
                    offsets[w][lane][r] = src_flat
                    dst.write(w, lane, r, memory.read(src_flat))
        return gather_lds_wavefronts(
            self.spec, instr.elem_bytes, offsets, warps, lanes, regs
        )


# ----------------------------------------------------------------------
# Vectorized backend
# ----------------------------------------------------------------------
class VectorInterpreter:
    """Whole-warp NumPy execution of warp programs.

    Register spaces are ``(warps, warp_size, regs)`` object arrays
    (``None`` marks an unwritten slot, mirroring the scalar backend's
    sparse register files); each instruction's routing tables compile
    once into flat index arrays, cached on the program, after which
    every execution is a handful of fancy-indexing gathers/scatters.
    """

    backend = "vector"

    def __init__(self, spec: GpuSpec, num_warps: int):
        self.spec = spec
        self.num_warps = num_warps

    def run(
        self, program: WarpProgram, inputs: Dict[str, RegisterFile]
    ) -> Tuple[Dict[str, RegisterFile], Tuple[int, ...]]:
        """Execute; returns (register spaces, gather-load wavefronts)."""
        gather_wavefronts: List[int] = []
        anchor = next(iter(inputs.values()))
        ws = anchor.warp_size
        nw = max(
            [anchor.num_warps]
            + [
                instr.warps
                for instr in program.instrs
                if instr.opcode in (Opcode.MOVR, Opcode.SHFL)
            ]
        )
        arrays: Dict[str, np.ndarray] = {}
        for name, rf in inputs.items():
            regs = max(program.num_regs(name), rf.num_regs)
            arrays[name] = rf.dense(nw, ws, regs)
        memory: Optional[np.ndarray] = None
        mem_bytes = 4
        written = set()
        for i, instr in enumerate(program.instrs):
            op = instr.opcode
            if instr.writes() is not None:
                written.add(instr.writes())
            key = ("vec", self.spec.name, self.num_warps, i)
            if op == Opcode.MOVR:
                src = arrays[instr.src]
                table = list(instr.dst_to_src)
                out = np.full(
                    (nw, ws, len(table)), None, dtype=object
                )
                w, l = min(instr.warps, nw), min(instr.lanes, ws)
                out[:w, :l, :] = src[:w, :l, table]
                arrays[instr.dst] = out
            elif op == Opcode.SHFL:
                plan = program.scratch.get(key)
                if plan is None:
                    plan = _compile_shfl(instr)
                    program.scratch[key] = plan
                dl, dr, sl, sr = plan
                out = arrays.get(instr.dst)
                if out is None:
                    out = np.full(
                        (nw, ws, program.num_regs(instr.dst)),
                        None,
                        dtype=object,
                    )
                    arrays[instr.dst] = out
                w = min(instr.warps, nw)
                out[:w, dl, dr] = arrays[instr.src][:w, sl, sr]
            elif op == Opcode.STS:
                plan = program.scratch.get(key)
                if plan is None:
                    plan = _compile_shared(instr, ws, self.num_warps)
                    program.scratch[key] = plan
                w_idx, l_idx, r_idx, off = plan
                mem_bytes = instr.elem_bytes
                memory = _alloc_memory(program, ws, self.num_warps)
                if len(off):
                    memory[off] = arrays[instr.src][w_idx, l_idx, r_idx]
            elif op == Opcode.LDS:
                if memory is None:
                    raise RuntimeError("LDS before any STS")
                plan = program.scratch.get(key)
                if plan is None:
                    plan = _compile_shared(instr, ws, self.num_warps)
                    program.scratch[key] = plan
                w_idx, l_idx, r_idx, off = plan
                out = np.full(
                    (nw, ws, program.num_regs(instr.dst)),
                    None,
                    dtype=object,
                )
                if len(off):
                    out[w_idx, l_idx, r_idx] = memory[off]
                arrays[instr.dst] = out
            elif op == Opcode.GATHER_SHFL:
                arrays[instr.dst] = self._gather_shfl(
                    program, instr, key, arrays, nw, ws
                )
            elif op == Opcode.GATHER_STS:
                layout = instr.layout
                here = _slot_flats(program, instr.layout, key)
                warps = layout.in_dim_size(WARP)
                lanes = layout.in_dim_size(LANE)
                regs = layout.in_dim_size(REGISTER)
                mem_bytes = instr.elem_bytes
                memory = np.full(
                    1 << layout.total_out_bits(), None, dtype=object
                )
                memory[here.ravel()] = arrays[instr.src][
                    :warps, :lanes, :regs
                ].ravel()
            elif op == Opcode.GATHER_LDS:
                if memory is None:
                    raise RuntimeError("GATHER_LDS before any store")
                layout = instr.layout
                warps = layout.in_dim_size(WARP)
                lanes = layout.in_dim_size(LANE)
                regs = layout.in_dim_size(REGISTER)
                src_flat = self._gather_offsets(
                    program, instr, key, arrays, warps, lanes, regs
                )
                out = np.full((nw, ws, regs), None, dtype=object)
                out[:warps, :lanes, :regs] = memory[src_flat]
                arrays[instr.dst] = out
                gather_wavefronts.append(
                    gather_lds_wavefronts(
                        self.spec, mem_bytes, src_flat, warps, lanes, regs
                    )
                )
            elif op != Opcode.BAR:  # pragma: no cover
                raise TypeError(f"unknown instruction {instr!r}")
        files = {}
        for name, arr in arrays.items():
            if name in written or name not in inputs:
                files[name] = RegisterFile.from_dense(
                    arr, anchor.num_warps, ws
                )
            else:
                # Untouched inputs pass through without an array
                # round-trip.
                files[name] = inputs[name]
        return files, tuple(gather_wavefronts)

    # -- gather helpers ------------------------------------------------
    def _gather_offsets(
        self, program, instr, key, arrays, warps, lanes, regs
    ) -> np.ndarray:
        here = _slot_flats(program, instr.layout, (*key, "flats"))
        shift, mask = _axis_field(instr.layout, instr.axis)
        pos = arrays[instr.index][:warps, :lanes, :regs].astype(np.int64)
        return (here & ~mask) | (pos << shift)

    def _gather_shfl(
        self, program, instr, key, arrays, nw, ws
    ) -> np.ndarray:
        layout = instr.layout
        warps = layout.in_dim_size(WARP)
        lanes = layout.in_dim_size(LANE)
        regs = layout.in_dim_size(REGISTER)
        src_flat = self._gather_offsets(
            program, instr, key, arrays, warps, lanes, regs
        )
        view = DistributedView(layout)
        owner_lane = np.zeros_like(src_flat)
        owner_reg = np.zeros_like(src_flat)
        for pos, (dim, i) in view.bit_owner.items():
            sel = (src_flat >> pos) & 1
            if dim == LANE:
                owner_lane |= sel << i
            elif dim == REGISTER:
                owner_reg |= sel << i
        w_mesh = np.arange(warps).reshape(-1, 1, 1)
        w_mesh = np.broadcast_to(w_mesh, src_flat.shape)
        out = np.full((nw, ws, regs), None, dtype=object)
        out[:warps, :lanes, :regs] = arrays[instr.src][
            w_mesh, owner_lane, owner_reg
        ]
        return out


# ----------------------------------------------------------------------
# Compilation helpers (index-array construction, cached per program)
# ----------------------------------------------------------------------
def _compile_shfl(instr):
    dl: List[int] = []
    dr: List[int] = []
    sl: List[int] = []
    sr: List[int] = []
    for lane, s_lane in enumerate(instr.src_lane):
        for s_reg, d_reg in zip(
            instr.send_regs[s_lane], instr.recv_regs[lane]
        ):
            dl.append(lane)
            dr.append(d_reg)
            sl.append(s_lane)
            sr.append(s_reg)
    return (
        np.asarray(dl, dtype=np.intp),
        np.asarray(dr, dtype=np.intp),
        np.asarray(sl, dtype=np.intp),
        np.asarray(sr, dtype=np.intp),
    )


def _compile_shared(instr, warp_size: int, num_warps: int):
    """Flat (warp, lane, reg, offset) indices in machine write order."""
    return tuple(
        a.astype(np.intp)
        for a in instr.accesses.elements(warp_size, num_warps)
    )


def _alloc_memory(
    program: WarpProgram, warp_size: int, num_warps: int
) -> np.ndarray:
    """A fresh shared-memory array big enough for the whole program."""
    key = ("memsize", num_warps)
    size = program.scratch.get(key)
    if size is None:
        size = 1
        for instr in program.instrs:
            if instr.opcode in (Opcode.STS, Opcode.LDS):
                size = max(size, instr.accesses.extent())
            elif instr.opcode in (
                Opcode.GATHER_STS,
                Opcode.GATHER_LDS,
            ):
                size = max(size, 1 << instr.layout.total_out_bits())
        program.scratch[key] = size
    return np.full(size, None, dtype=object)


def _slot_flats(program: WarpProgram, layout, key) -> np.ndarray:
    """:func:`slot_table` of a layout, memoized in the program."""
    cached = program.scratch.get(key)
    if cached is not None:
        return cached
    flats = slot_table(layout)
    program.scratch[key] = flats
    return flats


def make_interpreter(
    backend: str, spec: GpuSpec, num_warps: int
):
    """The interpreter implementing one backend name."""
    if backend == "scalar":
        return ScalarInterpreter(spec, num_warps)
    if backend == "vector":
        return VectorInterpreter(spec, num_warps)
    raise ValueError(
        f"unknown simulator backend {backend!r} "
        "(expected 'scalar' or 'vector')"
    )


__all__ = [
    "ScalarInterpreter",
    "VectorInterpreter",
    "gather_lds_wavefronts",
    "make_interpreter",
]
