"""The simulated machine: runs warp programs and prices the runs.

Every plan executes by lowering to the unified instruction IR
(:mod:`repro.program`) and running the stream through one dispatch
loop.  Execution is real data movement: values travel through
register files, shuffle networks and banked shared memory, so a plan
that routes a single element wrong fails the correctness checks in
tests.  The interpreter (:func:`repro.program.interp.run`) moves the
data and measures the bank wavefronts of every shared load and store
on the addresses it ran; :meth:`Machine.run_program` then prices the
run with :func:`repro.gpusim.opcost.price_program`, the same pricer
static op counts use, at the machine's warp count and with those
measured wavefronts.  The machine never reads a static price: that
the two agree is a test, not a construction.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.codegen.plan import ConversionPlan
from repro.core.dims import WARP
from repro.gpusim.opcost import price_program
from repro.gpusim.registers import RegisterFile
from repro.gpusim.trace import Trace
from repro.hardware.instructions import InstructionKind
from repro.hardware.spec import GpuSpec, RTX4090, check_num_warps
from repro.obs import core as _obs
from repro.program import interp
from repro.program.ir import Opcode, R_IN, WarpProgram


class Machine:
    """Executes warp programs over a CTA of ``num_warps`` warps.

    ``num_warps`` must be a positive power of two
    (:func:`~repro.hardware.spec.check_num_warps`).
    """

    def __init__(self, spec: GpuSpec = RTX4090, num_warps: int = 4):
        self.spec = spec
        self.num_warps = check_num_warps(num_warps)

    # ------------------------------------------------------------------
    # The one execution entry point
    # ------------------------------------------------------------------
    def run_program(
        self,
        program: WarpProgram,
        inputs: Dict[str, RegisterFile],
    ) -> Tuple[Dict[str, RegisterFile], Trace]:
        """Run an instruction stream; returns (spaces, priced trace).

        When :mod:`repro.obs` is recording, the execution is wrapped
        in a ``sim:run_program`` span and the resulting trace's
        totals land in the ``sim.*`` metric families (instruction
        counts, cycles, bank-conflict wavefronts) labeled by platform;
        the simulation itself is identical either way.

        Raises :class:`ValueError` when an instruction spans more of
        the CTA than the machine has: a shared-memory access over more
        threads (they would silently move nothing), or a register
        move, shuffle or gather over more warps (they would fill warps
        the run is not priced for).
        """
        self._check_threads(program)
        if not _obs.is_enabled():
            return self._execute(program, inputs)
        with _obs.span(
            "sim:run_program",
            platform=self.spec.name,
            instructions=len(program.instrs),
        ) as sp:
            files, trace = self._execute(program, inputs)
            self._publish_trace_metrics(trace, sp)
        return files, trace

    def _check_threads(self, program: WarpProgram) -> None:
        threads = self.num_warps * self.spec.warp_size
        for instr in program.instrs:
            op = instr.opcode
            if op in (Opcode.STS, Opcode.LDS):
                if instr.accesses.num_threads > threads:
                    raise ValueError(
                        f"{op.name} spans "
                        f"{instr.accesses.num_threads} threads; this "
                        f"machine has {self.num_warps} warps of "
                        f"{self.spec.warp_size} ({threads} threads)"
                    )
                continue
            if op in (Opcode.MOVR, Opcode.SHFL):
                warps = instr.warps
            elif op == Opcode.BAR:
                continue
            else:  # the gathers run over their layout's warps
                warps = instr.layout.in_dim_size(WARP)
            if warps > self.num_warps:
                raise ValueError(
                    f"{op.name} spans {warps} warps; this machine has "
                    f"{self.num_warps}"
                )

    def _execute(
        self, program: WarpProgram, inputs: Dict[str, RegisterFile]
    ) -> Tuple[Dict[str, RegisterFile], Trace]:
        """Move the data, then price the run with the wavefronts the
        interpreter measured on it."""
        files, measured = interp.run(
            program, inputs, self.spec, self.num_warps
        )
        return files, price_program(
            program, self.spec, self.num_warps, measured
        )

    _SHARED_KINDS = (
        InstructionKind.SHARED_LOAD,
        InstructionKind.SHARED_STORE,
        InstructionKind.LDMATRIX,
        InstructionKind.STMATRIX,
    )

    def _publish_trace_metrics(self, trace: Trace, sp) -> None:
        """Turn one execution's trace totals into obs metrics."""
        issued = sum(i.count for i in trace.instructions)
        cycles = trace.cycles()
        conflicts = sum(
            (i.wavefronts - 1) * i.count
            for i in trace.instructions
            if i.kind in self._SHARED_KINDS and i.wavefronts > 1
        )
        platform = self.spec.name
        _obs.count("sim.programs", 1, platform=platform)
        _obs.count("sim.instructions", issued, platform=platform)
        _obs.count("sim.cycles", cycles, platform=platform)
        _obs.count("sim.bank_conflicts", conflicts, platform=platform)
        sp.set_attrs(
            {"issued": issued, "cycles": cycles,
             "bank_conflicts": conflicts}
        )

    # ------------------------------------------------------------------
    # Plan-level convenience (interpret the plan's program)
    # ------------------------------------------------------------------
    def run_conversion(
        self, plan: ConversionPlan, src: RegisterFile
    ) -> Tuple[RegisterFile, Trace]:
        """Execute a conversion plan; returns (dst registers, trace)."""
        program = plan.program
        if not program.instrs:
            return src.copy(), Trace(self.spec)
        files, trace = self.run_program(program, {R_IN: src})
        result = files[program.result]
        if result is src:
            result = src.copy()
        return result, trace
