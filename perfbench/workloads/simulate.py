"""``simulate``: run every distinct fig9 conversion plan on the simulator.

Why: no compile layer runs in the measured part.
``gpusim.registers``, ``program.interp`` and ``gpusim.machine`` do all
the work, including the interpreter's first-execution index
compilation (every plan is lowered afresh, so its program carries no
compiled index plans yet).  It is the only workload that moves
simulated data.

Set-up compiles the suite and keeps its distinct conversion plans
(297 across RTX4090, GH200 and MI250, both modes).  Each pass takes
every plan in a seeded order and:

1. lowers it afresh with ``repro.program.lower_plan``;
2. distributes seeded, pairwise-distinct values over its source
   layout (``gpusim.registers.distributed_data``);
3. runs the program on ``Machine(<the kernel's platform spec>,
   warps).run_program``;
4. checks every destination register slot against the destination
   layout (``assert_matches_layout``).

It calls ``Machine.run_program`` directly rather than going through
``repro.interp.execute_graph``: the executor's ``_simulate_conversion``
plans with the default RTX4090 spec and builds a 32-lane ``Machine``
whatever the layout's lane count, so every MI250 (warp-64) case with a
conversion asks for ~3 GiB object arrays and is killed for memory.
That defect is left for its own fix.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.dims import WARP
from repro.gpusim.machine import Machine
from repro.gpusim.registers import assert_matches_layout, distributed_data
from repro.hardware.instructions import InstructionKind
from repro.obs import span
from repro.program.ir import R_IN
from repro.program.lower import lower_plan

from perfbench.telemetry import cache_delta, cache_snapshot
from perfbench.workloads.base import PassResult, timed_ops, warm_up

_SHARED_KINDS = (
    InstructionKind.SHARED_LOAD,
    InstructionKind.SHARED_STORE,
    InstructionKind.LDMATRIX,
    InstructionKind.STMATRIX,
)
_MASK = (1 << 32) - 1


class Simulate:
    name = "simulate"

    def __init__(self, seed: int, clock):
        self.rng = random.Random(seed)
        self.clock = clock

    def setup(self):
        """Compile the suite; keep each distinct plan with its machine.

        Returns ``(scaled seconds, compiles, failures)``.
        """
        _, _, results, self.geomean, seconds, compiles, failures = warm_up(
            self.clock
        )
        start = time.perf_counter()
        self.plans = []
        machines = {}
        seen = set()
        for case, compiled in results:
            for plan in compiled.conversions:
                if id(plan) in seen:
                    continue
                seen.add(id(plan))
                warps = max(
                    plan.src.in_dim_size(WARP), plan.dst.in_dim_size(WARP)
                )
                key = (case.platform, warps)
                if key not in machines:
                    machines[key] = Machine(case.spec, warps)
                self.plans.append((plan, machines[key]))
        seconds += self.clock.scaled(start, time.perf_counter())
        return seconds, compiles, failures

    def run_pass(self, traced: bool) -> PassResult:
        order = list(self.plans)
        self.rng.shuffle(order)
        before = cache_snapshot()
        failures = []
        totals = {"instructions": 0, "issued": 0, "wavefronts": 0}
        cycles = []

        def simulate(item) -> None:
            plan, machine = item
            # An odd multiplier makes the values pairwise distinct, so
            # a misrouted element cannot match by accident.
            mul = self.rng.randrange(1, 1 << 32, 2)
            add = self.rng.randrange(1 << 32)

            def value_of(p):
                return (p * mul + add) & _MASK

            try:
                with span("program:lower_plan"):
                    program = lower_plan(plan)
                with span("registers:distribute"):
                    registers = distributed_data(
                        plan.src, machine.num_warps, machine.spec.warp_size,
                        value_of=value_of,
                    )
                with span("machine:run_program"):
                    files, trace = machine.run_program(
                        program, {R_IN: registers}
                    )
                with span("registers:check"):
                    assert_matches_layout(
                        files[program.result], plan.dst, value_of=value_of
                    )
            except Exception as exc:  # includes a mismatched slot
                failures.append(f"{plan!r}: {type(exc).__name__}: {exc}")
                return
            totals["instructions"] += len(program.instrs)
            for instr in trace.instructions:
                totals["issued"] += instr.count
                if instr.kind in _SHARED_KINDS:
                    totals["wavefronts"] += instr.wavefronts * instr.count
            cycles.append(trace.cycles())

        latencies, raw = timed_ops(self.clock, order, simulate)
        counts = {
            "program.instructions": totals["instructions"],
            "machine.instructions": totals["issued"],
            "machine.sim_cycles": math.fsum(cycles),
            "machine.wavefronts": totals["wavefronts"],
        }
        return PassResult(
            sum(latencies) / 1e3, raw, latencies, failures, counts,
            cache_delta(before),
        )

    def layer_metrics(self, passes) -> dict:
        kinds = {}
        for plan, _ in self.plans:
            kinds[plan.kind] = kinds.get(plan.kind, 0) + 1
        return {
            f"codegen.plans_{kind}": kinds.get(kind, 0)
            for kind in ("shared", "shuffle", "register", "noop")
        }
