"""The warp-program interpreter: whole-warp NumPy execution.

:func:`run` executes an instruction stream as real data movement
through register files and banked shared memory.  A register space,
like a :class:`~repro.gpusim.registers.RegisterFile`, is one typed
``(warps, lanes, regs)`` array of values plus a boolean mask of the
written slots; shared memory is the same pair, flat.  The values keep
the dtype of the data moved (int64 ids, float64 tensor elements,
``object`` only for a promoted file).  Each instruction's routing
tables compile into NumPy index arrays once (cached on the program),
after which an instruction moves whole warps, values and mask alike,
through a handful of fancy-indexed gathers and scatters.

An ``STS``/``LDS`` compiles from
:meth:`~repro.codegen.access.SharedAccesses.elements`: a full-width
table stays on its ``(slot, thread, element)`` access grid (offsets,
a register view and a broadcast thread column), a ragged one is
enumerated flat, and either form indexes a register space as
``thread * regs + reg``.

Pricing is :func:`repro.gpusim.opcost.price_program`'s job, but the
bank behaviour it bills is measured here, on the addresses the
interpreter ran: :func:`run` returns, next to the register spaces, the
wavefronts of every ``STS``/``LDS`` (from the element offsets its index
arrays hold, :func:`~repro.gpusim.memory.executed_wavefronts`,
compiled and cached with them) and of every ``GATHER_LDS`` (from the
gathered addresses, :func:`gather_lds_wavefronts`).

The per-lane reference interpreter that the tests hold this one to
lives in ``tests/program_reference.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.dims import LANE, REGISTER, WARP
from repro.codegen.views import owner_table, slot_table
from repro.gpusim.memory import executed_wavefronts, instruction_wavefronts
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
    spec: GpuSpec, elem_bytes: int, offsets: np.ndarray
) -> int:
    """Measured wavefronts of the data-dependent gathered loads.

    ``offsets[w, l, r]`` holds the flat source offsets; each (register,
    warp) is one lockstep load.  The metric is the historical one — per
    register slot the worst warp, averaged over slots.
    """
    warps, lanes, regs = offsets.shape
    per_slot = instruction_wavefronts(
        spec,
        elem_bytes,
        offsets.transpose(2, 0, 1).reshape(regs * warps, lanes),
        1,
    ).reshape(regs, warps)
    worst = np.maximum(per_slot.max(axis=1, initial=0), 1)
    return max(1, int(worst.sum()) // max(1, regs))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
Space = Tuple[np.ndarray, np.ndarray]  # (values, written mask)


def _empty(shape, dtype) -> Space:
    """A space (or shared memory) with no slot written."""
    return np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=bool)


def run(
    program: WarpProgram,
    inputs: Dict[str, RegisterFile],
    spec: GpuSpec,
    num_warps: int,
) -> Tuple[Dict[str, RegisterFile], Tuple[int, ...]]:
    """Execute; returns (register spaces, measured wavefronts).

    While the program runs, each register space is a pair of
    ``(warps, warp_size, regs)`` arrays: the values, in the dtype of
    the data moved, and a boolean mask of the written slots.  Spaces
    span the larger of ``num_warps`` and the input files' warps; a
    slot no input wrote stays unwritten, so the checks name it.
    Shared memory is the same pair, flat.  ``STS``/``LDS`` move the
    accesses of the first ``num_warps`` warps;
    :class:`~repro.gpusim.machine.Machine` refuses a program whose
    instructions span more warps than it has.

    The measured wavefronts hold one count per ``STS``, ``LDS`` and
    ``GATHER_LDS``, in program order: what
    :func:`~repro.gpusim.opcost.price_program` takes as ``measured``.
    An ``STS``/``LDS`` count is paid once per program, with its index
    arrays; a gather load's depends on the index values.
    """
    measured: List[int] = []
    ws = next(iter(inputs.values())).warp_size
    nw = max([num_warps] + [rf.num_warps for rf in inputs.values()])
    spaces: Dict[str, Space] = {}
    for name, rf in inputs.items():
        regs = max(program.num_regs(name), rf.num_regs)
        spaces[name] = rf.dense(nw, ws, regs)
    memory: Optional[Space] = None
    mem_bytes = 4
    written = set()
    for i, instr in enumerate(program.instrs):
        op = instr.opcode
        if instr.writes() is not None:
            written.add(instr.writes())
        key = _key(spec, num_warps, i)
        if op == Opcode.MOVR:
            src_vals, src_mask = spaces[instr.src]
            table = list(instr.dst_to_src)
            vals, mask = _empty((nw, ws, len(table)), src_vals.dtype)
            w, l = min(instr.warps, nw), min(instr.lanes, ws)
            vals[:w, :l, :] = src_vals[:w, :l, table]
            mask[:w, :l, :] = src_mask[:w, :l, table]
            spaces[instr.dst] = vals, mask
        elif op == Opcode.SHFL:
            dl, dr, sl, sr = _memo(program, key, _compile_shfl, instr)
            src_vals, src_mask = spaces[instr.src]
            vals, mask = spaces.get(instr.dst) or _empty(
                (nw, ws, program.num_regs(instr.dst)), src_vals.dtype
            )
            if vals.dtype != src_vals.dtype:  # objects hold both exactly
                vals = vals.astype(object)
            w = min(instr.warps, nw)
            vals[:w, dl, dr] = src_vals[:w, sl, sr]
            mask[:w, dl, dr] = src_mask[:w, sl, sr]
            spaces[instr.dst] = vals, mask
        elif op == Opcode.STS:
            thread, reg, off, wavefronts, _, last = _shared(
                program, i, spec, ws, num_warps
            )
            measured.append(wavefronts)
            mem_bytes = instr.elem_bytes
            src_vals, src_mask = spaces[instr.src]
            at = _flat_index(thread, reg, src_vals.shape[2])
            if last is not None:  # only each offset's last write lands
                at, off = at.reshape(-1)[last], off.reshape(-1)[last]
            size = _memory_size(program, spec, ws, num_warps)
            memory = _empty(size, src_vals.dtype)
            memory[0][off] = src_vals.reshape(-1)[at]
            memory[1][off] = src_mask.reshape(-1)[at]
        elif op == Opcode.LDS:
            if memory is None:
                raise RuntimeError("LDS before any STS")
            thread, reg, off, wavefronts, _, _ = _shared(
                program, i, spec, ws, num_warps
            )
            measured.append(wavefronts)
            regs = program.num_regs(instr.dst)
            vals, mask = _empty((nw, ws, regs), memory[0].dtype)
            at = _flat_index(thread, reg, regs)
            vals.reshape(-1)[at] = memory[0][off]
            mask.reshape(-1)[at] = memory[1][off]
            spaces[instr.dst] = vals, mask
        elif op == Opcode.GATHER_SHFL:
            spaces[instr.dst] = _gather_shfl(
                program, instr, key, spaces, nw, ws
            )
        elif op == Opcode.GATHER_STS:
            layout = instr.layout
            here = _memo(program, key, slot_table, layout).ravel()
            warps = layout.in_dim_size(WARP)
            lanes = layout.in_dim_size(LANE)
            regs = layout.in_dim_size(REGISTER)
            mem_bytes = instr.elem_bytes
            src_vals, src_mask = spaces[instr.src]
            memory = _empty(1 << layout.total_out_bits(), src_vals.dtype)
            memory[0][here] = src_vals[:warps, :lanes, :regs].ravel()
            memory[1][here] = src_mask[:warps, :lanes, :regs].ravel()
        elif op == Opcode.GATHER_LDS:
            if memory is None:
                raise RuntimeError("GATHER_LDS before any store")
            layout = instr.layout
            warps = layout.in_dim_size(WARP)
            lanes = layout.in_dim_size(LANE)
            regs = layout.in_dim_size(REGISTER)
            src_flat, idx_mask = _gather_offsets(
                program, instr, key, spaces, warps, lanes, regs
            )
            vals, mask = _empty((nw, ws, regs), memory[0].dtype)
            vals[:warps, :lanes] = memory[0][src_flat]
            mask[:warps, :lanes] = memory[1][src_flat] & idx_mask
            spaces[instr.dst] = vals, mask
            measured.append(gather_lds_wavefronts(spec, mem_bytes, src_flat))
        elif op != Opcode.BAR:  # pragma: no cover
            raise TypeError(f"unknown instruction {instr!r}")
    files = {}
    for name, (vals, mask) in spaces.items():
        if name in written or name not in inputs:
            files[name] = RegisterFile(vals, mask, nw, ws)
        else:
            # Untouched inputs pass through without an array round-trip.
            files[name] = inputs[name]
    return files, tuple(measured)


# ----------------------------------------------------------------------
# Gather helpers
# ----------------------------------------------------------------------
def _gather_offsets(
    program, instr, key, spaces, warps, lanes, regs
) -> Space:
    """Flat source position of every (warp, lane, register) slot, and
    which slots have a written index; ``IndexError`` for a written
    index outside ``[0, axis size)``, as ``np.take_along_axis`` raises."""
    here = _memo(program, (*key, "flats"), slot_table, instr.layout)
    shift, mask = _axis_field(instr.layout, instr.axis)
    idx_vals, idx_mask = spaces[instr.index]
    pos = idx_vals[:warps, :lanes, :regs].astype(np.int64)
    written = idx_mask[:warps, :lanes, :regs]
    size = (mask >> shift) + 1
    bad = written & ((pos < 0) | (pos >= size))
    if bad.any():
        slot = np.unravel_index(np.argmax(bad), bad.shape)
        raise IndexError(
            f"gather index {pos[slot]} is out of bounds for axis {instr.axis}"
            f" with size {size} at (w={slot[0]}, l={slot[1]}, r={slot[2]})"
        )
    return (here & ~mask) | (pos << shift), written


def _gather_shfl(program, instr, key, spaces, nw, ws) -> Space:
    """Each slot reads its source position's canonical owner in-warp."""
    layout = instr.layout
    warps = layout.in_dim_size(WARP)
    lanes = layout.in_dim_size(LANE)
    regs = layout.in_dim_size(REGISTER)
    src_flat, idx_mask = _gather_offsets(
        program, instr, key, spaces, warps, lanes, regs
    )
    owners = _memo(program, (*key, "owners"), owner_table, layout)
    owner = owners[src_flat]
    w_mesh = np.broadcast_to(
        np.arange(warps).reshape(-1, 1, 1), src_flat.shape
    )
    src_vals, src_mask = spaces[instr.src]
    at = (w_mesh, owner[..., 1], owner[..., 0])
    vals, mask = _empty((nw, ws, regs), src_vals.dtype)
    vals[:warps, :lanes] = src_vals[at]
    mask[:warps, :lanes] = src_mask[at] & idx_mask
    return vals, mask


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


def _compile_shared(instr, spec: GpuSpec, warp_size: int, num_warps: int):
    """(thread, reg, offset) of every moved element, in either form of
    :meth:`~repro.codegen.access.SharedAccesses.elements`; then the
    wavefronts those offsets cost (:func:`executed_wavefronts`), one
    past the highest offset (0 when nothing moves) and, for an STS,
    :func:`_last_writes` of its offsets."""
    accesses = instr.accesses
    thread, reg, off = accesses.elements(warp_size, num_warps)
    moved = None if off.ndim == 3 else accesses.moved(warp_size, num_warps)
    wavefronts = executed_wavefronts(spec, instr.elem_bytes, off, moved)
    bound = int(off.max(initial=-1)) + 1
    last = _last_writes(off, bound) if instr.opcode == Opcode.STS else None
    return thread, reg, off, wavefronts, bound, last


def _last_writes(off: np.ndarray, bound: int) -> Optional[np.ndarray]:
    """Where each offset is written last, as positions in the raveled
    issue order of ``off`` (values in ``[0, bound)``); None when no
    offset repeats.

    A store through these positions writes every offset once, with its
    last issue's value, as the per-lane reference does: NumPy leaves
    the order of repeated fancy-index writes unspecified, and
    ``np.maximum.at`` is defined on repeated indices.  One
    ``bincount`` detects repeats in O(elements + bound)."""
    flat = off.reshape(-1)
    if flat.size <= bound and np.bincount(flat, minlength=bound).max(initial=0) <= 1:
        return None
    last = np.full(bound, -1, dtype=np.intp)
    np.maximum.at(last, flat, np.arange(flat.size))
    return last[last >= 0]


def _shared(
    program: WarpProgram, i: int, spec: GpuSpec, warp_size: int,
    num_warps: int,
):
    """:func:`_compile_shared` of STS/LDS ``i``, memoized in the
    program under that instruction's :func:`_key`."""
    return _memo(
        program, _key(spec, num_warps, i), _compile_shared,
        program.instrs[i], spec, warp_size, num_warps,
    )


def _flat_index(thread, reg, regs: int) -> np.ndarray:
    """Flat (warp, lane, reg) position of every element of an STS/LDS,
    in either form, laid out in C order as the offsets are.  An LDS
    that loads one register in two slots still rests on NumPy writing
    repeated indices in this (issue) order; an STS writes each offset
    once (:func:`_last_writes`)."""
    return np.add(thread * regs, reg, order="C")


def _memory_size(
    program: WarpProgram, spec: GpuSpec, warp_size: int, num_warps: int
) -> int:
    """Shared-memory elements the whole program addresses: the bound
    of every compiled STS/LDS (which compiles them all), and the whole
    codomain of every gather."""
    key = ("memsize", spec.name, num_warps)
    size = program.scratch.get(key)
    if size is None:
        size = 1
        for i, instr in enumerate(program.instrs):
            if instr.opcode in (Opcode.STS, Opcode.LDS):
                bound = _shared(program, i, spec, warp_size, num_warps)[4]
                size = max(size, bound)
            elif instr.opcode in (
                Opcode.GATHER_STS,
                Opcode.GATHER_LDS,
            ):
                size = max(size, 1 << instr.layout.total_out_bits())
        program.scratch[key] = size
    return size


def _key(spec: GpuSpec, num_warps: int, i: int):
    """The scratch key of instruction ``i``'s compiled index arrays."""
    return ("vec", spec.name, num_warps, i)


def _memo(program: WarpProgram, key, build, *args):
    """``build(*args)``, memoized in the program's scratch under ``key``."""
    cached = program.scratch.get(key)
    if cached is None:
        cached = program.scratch[key] = build(*args)
    return cached


__all__ = ["gather_lds_wavefronts", "run"]
