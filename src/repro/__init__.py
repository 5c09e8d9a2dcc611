"""Linear Layouts over F2 — a full reproduction of the ASPLOS 2026
paper "Linear Layouts: Robust Code Generation of Efficient Tensor
Computation Using F2".

The most-used entry points are re-exported here; see the package
README for a tour and ``docs/THEORY.md`` for the paper-to-code map.
"""

from repro import cache
from repro.core import (
    AffineLayout,
    BLOCK,
    LANE,
    OFFSET,
    REGISTER,
    WARP,
    LinearLayout,
    make_identity,
)
from repro.codegen import classify_conversion, plan_conversion
from repro.engine import CompiledKernel, KernelBuilder, compile
from repro.gpusim import Machine, distributed_data
from repro.hardware import GH200, MI250, PLATFORMS, RTX4090
from repro.layouts import (
    AmdMfmaLayout,
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    SlicedLayout,
    SwizzledSharedLayout,
    WgmmaLayout,
)

__version__ = "1.0.0"

__all__ = [
    "AffineLayout",
    "AmdMfmaLayout",
    "BLOCK",
    "BlockedLayout",
    "CompiledKernel",
    "GH200",
    "KernelBuilder",
    "LANE",
    "LinearLayout",
    "MI250",
    "Machine",
    "MmaOperandLayout",
    "NvidiaMmaLayout",
    "OFFSET",
    "PLATFORMS",
    "REGISTER",
    "RTX4090",
    "SlicedLayout",
    "SwizzledSharedLayout",
    "WARP",
    "WgmmaLayout",
    "cache",
    "classify_conversion",
    "compile",
    "distributed_data",
    "make_identity",
    "plan_conversion",
    "__version__",
]
