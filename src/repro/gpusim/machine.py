"""The simulated machine: runs warp programs and prices the runs.

Every plan executes by lowering to the unified instruction IR
(:mod:`repro.program`) and running the stream through one dispatch
loop.  Execution is real data movement: values travel through
register files, shuffle networks and banked shared memory, so a plan
that routes a single element wrong fails the correctness checks in
tests.  The interpreters only move data; :meth:`Machine.run_program`
then prices the run with :func:`repro.gpusim.opcost.price_program`,
the same pricer static op counts use, at the machine's warp count and
with the gather-load wavefronts the interpreter measured.

Two interpreter backends implement the loop: a NumPy-vectorized one
(default — whole-warp gather/scatter per instruction) and a scalar
per-lane oracle used for differential testing.  Select with the
``backend`` argument or the ``REPRO_SIM`` environment variable; both
produce bit-identical register files and traces.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.codegen.plan import ConversionPlan
from repro.gpusim.opcost import price_program, program_price
from repro.gpusim.registers import RegisterFile
from repro.gpusim.trace import Trace
from repro.hardware.instructions import InstructionKind
from repro.hardware.spec import GpuSpec, RTX4090
from repro.obs import core as _obs
from repro.program.interp import make_interpreter
from repro.program.ir import R_IN, WarpProgram


def _default_backend() -> str:
    return os.environ.get("REPRO_SIM", "vector")


class Machine:
    """Executes warp programs over simulated hardware."""

    def __init__(
        self,
        spec: GpuSpec = RTX4090,
        num_warps: int = 4,
        backend: Optional[str] = None,
    ):
        self.spec = spec
        self.num_warps = num_warps
        self.backend = backend or _default_backend()
        self._interp = make_interpreter(
            self.backend, spec, num_warps
        )

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
        counts, cycles, bank-conflict wavefronts) labeled by platform
        and backend; the simulation itself is identical either way.
        """
        if not _obs.is_enabled():
            return self._execute(program, inputs)
        with _obs.span(
            "sim:run_program",
            backend=self.backend,
            platform=self.spec.name,
            instructions=len(program.instrs),
        ) as sp:
            files, trace = self._execute(program, inputs)
            self._publish_trace_metrics(trace, sp)
        return files, trace

    def _execute(
        self, program: WarpProgram, inputs: Dict[str, RegisterFile]
    ) -> Tuple[Dict[str, RegisterFile], Trace]:
        """Move the data, then price the run.

        Without a gather load the price depends only on the program,
        the platform and the warp count, so it comes from the
        program's price memo (:func:`program_price`).
        """
        files, gather_wavefronts = self._interp.run(program, inputs)
        if gather_wavefronts:
            return files, price_program(
                program, self.spec, self.num_warps, gather_wavefronts
            )
        records, _ = program_price(program, self.spec, self.num_warps)
        return files, Trace(self.spec, list(records))

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
        labels = {"platform": self.spec.name, "backend": self.backend}
        _obs.count("sim.programs", 1, **labels)
        _obs.count("sim.instructions", issued, **labels)
        _obs.count("sim.cycles", cycles, **labels)
        _obs.count("sim.bank_conflicts", conflicts, **labels)
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
