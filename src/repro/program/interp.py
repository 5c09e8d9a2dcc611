"""The warp-program interpreter: whole-warp NumPy execution.

:func:`run` executes an instruction stream as real data movement
through register files and banked shared memory.  Each instruction's
routing tables compile into NumPy index arrays once (cached on the
program), after which an instruction moves whole warps through a
handful of fancy-indexed gathers and scatters.

The interpreter only moves data; pricing is
:func:`repro.gpusim.opcost.price_program`'s job.  The one cost input
the interpreter alone can supply is the bank behaviour of gather
loads, whose addresses depend on the index values: :func:`run`
returns the measured wavefronts of each ``GATHER_LDS`` (through
:func:`gather_lds_wavefronts`) next to the register spaces.

The per-lane reference interpreter that the tests hold this one to
lives in ``tests/program_reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dims import LANE, REGISTER, WARP
from repro.codegen.views import owner_table, slot_table
from repro.gpusim.memory import bank_wavefronts
from repro.gpusim.registers import RegisterFile
from repro.hardware.spec import GpuSpec
from repro.program.ir import Opcode, WarpProgram


# ----------------------------------------------------------------------
# Gather geometry
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
# Execution
# ----------------------------------------------------------------------
def run(
    program: WarpProgram,
    inputs: Dict[str, RegisterFile],
    spec: GpuSpec,
    num_warps: int,
) -> Tuple[Dict[str, RegisterFile], Tuple[int, ...]]:
    """Execute; returns (register spaces, gather-load wavefronts).

    Register spaces are ``(warps, warp_size, regs)`` object arrays
    while the program runs (``None`` marks an unwritten slot, as in a
    sparse :class:`RegisterFile`), over the input files' warps.
    ``STS``/``LDS`` move the accesses of the first ``num_warps``
    warps; :class:`~repro.gpusim.machine.Machine` refuses a program
    whose instructions span more warps than it has.
    """
    gather_wavefronts: List[int] = []
    anchor = next(iter(inputs.values()))
    ws = anchor.warp_size
    nw = anchor.num_warps
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
        key = ("vec", spec.name, num_warps, i)
        if op == Opcode.MOVR:
            src = arrays[instr.src]
            table = list(instr.dst_to_src)
            out = np.full((nw, ws, len(table)), None, dtype=object)
            w, l = min(instr.warps, nw), min(instr.lanes, ws)
            out[:w, :l, :] = src[:w, :l, table]
            arrays[instr.dst] = out
        elif op == Opcode.SHFL:
            dl, dr, sl, sr = _memo(program, key, _compile_shfl, instr)
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
            w_idx, l_idx, r_idx, off = _memo(
                program, key, _compile_shared, instr, ws, num_warps
            )
            mem_bytes = instr.elem_bytes
            memory = _alloc_memory(program, ws, num_warps)
            if len(off):
                memory[off] = arrays[instr.src][w_idx, l_idx, r_idx]
        elif op == Opcode.LDS:
            if memory is None:
                raise RuntimeError("LDS before any STS")
            w_idx, l_idx, r_idx, off = _memo(
                program, key, _compile_shared, instr, ws, num_warps
            )
            out = np.full(
                (nw, ws, program.num_regs(instr.dst)), None, dtype=object
            )
            if len(off):
                out[w_idx, l_idx, r_idx] = memory[off]
            arrays[instr.dst] = out
        elif op == Opcode.GATHER_SHFL:
            arrays[instr.dst] = _gather_shfl(
                program, instr, key, arrays, nw, ws
            )
        elif op == Opcode.GATHER_STS:
            layout = instr.layout
            here = _memo(program, key, slot_table, layout)
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
            src_flat = _gather_offsets(
                program, instr, key, arrays, warps, lanes, regs
            )
            out = np.full((nw, ws, regs), None, dtype=object)
            out[:warps, :lanes, :regs] = memory[src_flat]
            arrays[instr.dst] = out
            gather_wavefronts.append(
                gather_lds_wavefronts(
                    spec, mem_bytes, src_flat, warps, lanes, regs
                )
            )
        elif op != Opcode.BAR:  # pragma: no cover
            raise TypeError(f"unknown instruction {instr!r}")
    files = {}
    for name, arr in arrays.items():
        if name in written or name not in inputs:
            files[name] = RegisterFile.from_dense(arr, anchor.num_warps, ws)
        else:
            # Untouched inputs pass through without an array round-trip.
            files[name] = inputs[name]
    return files, tuple(gather_wavefronts)


# ----------------------------------------------------------------------
# Gather helpers
# ----------------------------------------------------------------------
def _gather_offsets(
    program, instr, key, arrays, warps, lanes, regs
) -> np.ndarray:
    """Flat source position of every (warp, lane, register) slot."""
    here = _memo(program, (*key, "flats"), slot_table, instr.layout)
    shift, mask = _axis_field(instr.layout, instr.axis)
    pos = arrays[instr.index][:warps, :lanes, :regs].astype(np.int64)
    return (here & ~mask) | (pos << shift)


def _gather_shfl(program, instr, key, arrays, nw, ws) -> np.ndarray:
    """Each slot reads its source position's canonical owner in-warp."""
    layout = instr.layout
    warps = layout.in_dim_size(WARP)
    lanes = layout.in_dim_size(LANE)
    regs = layout.in_dim_size(REGISTER)
    src_flat = _gather_offsets(
        program, instr, key, arrays, warps, lanes, regs
    )
    owners = _memo(program, (*key, "owners"), owner_table, layout)
    owner = owners[src_flat]
    w_mesh = np.broadcast_to(
        np.arange(warps).reshape(-1, 1, 1), src_flat.shape
    )
    out = np.full((nw, ws, regs), None, dtype=object)
    out[:warps, :lanes, :regs] = arrays[instr.src][
        w_mesh, owner[..., 1], owner[..., 0]
    ]
    return out


# ----------------------------------------------------------------------
# Compilation helpers (index-array construction, cached per program)
# ----------------------------------------------------------------------
def _compile_shfl(instr):
    """Flat (dst lane, dst reg, src lane, src reg) of every moved value."""
    lanes, vec = instr.recv_regs.shape
    send = instr.send_regs[instr.src_lane]
    return (
        np.repeat(np.arange(lanes, dtype=np.intp), vec),
        instr.recv_regs.ravel().astype(np.intp),
        np.repeat(instr.src_lane.astype(np.intp), vec),
        send.ravel().astype(np.intp),
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


def _memo(program: WarpProgram, key, build, *args):
    """``build(*args)``, memoized in the program's scratch under ``key``."""
    cached = program.scratch.get(key)
    if cached is None:
        cached = program.scratch[key] = build(*args)
    return cached


__all__ = ["gather_lds_wavefronts", "run"]
