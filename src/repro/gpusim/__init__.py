"""A simulated GPU: banked shared memory, register files, shuffles.

This is the hardware substitute for the paper's RTX4090/GH200/MI250
testbeds.  It *executes* conversion plans — actually moving values
between simulated register files through simulated shared memory — so
correctness is checked by construction, and it counts instructions,
bank-conflict wavefronts, and cycles so the benchmark harness can
reproduce the paper's speedup shapes.
"""

from repro.gpusim.opcost import (
    CostPolicy,
    OpCostModel,
    op_cost_model,
    policy_for_mode,
    price_program,
)
from repro.gpusim.registers import RegisterFile, distributed_data
from repro.gpusim.trace import Trace
from repro.gpusim.machine import Machine

__all__ = [
    "CostPolicy",
    "Machine",
    "OpCostModel",
    "RegisterFile",
    "Trace",
    "distributed_data",
    "op_cost_model",
    "policy_for_mode",
    "price_program",
]
