"""Hardware substrate: platform specs, instruction tiles, cost model.

The paper evaluates on RTX4090, GH200, and MI250 (Table 2).  We model
each platform's layout-relevant traits: warp width, shared-memory bank
geometry, transaction width, which SIMD data-movement intrinsics exist
(``ldmatrix``/``stmatrix``/``wgmma``/``mfma``), and per-instruction
costs for the simulator.
"""

from repro.hardware.spec import (
    GH200,
    GpuSpec,
    MI250,
    PLATFORMS,
    RTX4090,
)
from repro.hardware.instructions import (
    Instruction,
    InstructionKind,
    instruction,
    ldmatrix_tile,
    vector_shared_tile,
)
from repro.hardware.cost import CostModel

__all__ = [
    "CostModel",
    "GH200",
    "GpuSpec",
    "Instruction",
    "InstructionKind",
    "MI250",
    "PLATFORMS",
    "RTX4090",
    "instruction",
    "ldmatrix_tile",
    "vector_shared_tile",
]
