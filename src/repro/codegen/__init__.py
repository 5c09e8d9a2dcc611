"""Code generation algorithms of Section 5.

Given source/destination distributed layouts and a platform spec,
these modules decide *how* to move data — no-op, register permutation,
warp shuffles, or shared memory with an optimal swizzle — and emit an
executable :class:`~repro.codegen.plan.ConversionPlan` whose warp
program the simulator executes and the cost model prices.
"""

from repro.codegen.broadcast import (
    duplicate_groups,
    reduction_store_count,
)
from repro.codegen.conversion import (
    ConversionKind,
    classify_conversion,
    plan_conversion,
)
from repro.codegen.division import (
    match_instruction_tile,
    permute_registers_for_tile,
)
from repro.codegen.gather import plan_gather
from repro.codegen.plan import ConversionPlan
from repro.codegen.shuffles import ShufflePlanError, plan_warp_shuffle
from repro.codegen.swizzle import optimal_swizzled_layout
from repro.codegen.vectorize import vector_width_bits
from repro.codegen.views import DistributedView

__all__ = [
    "ConversionKind",
    "ConversionPlan",
    "DistributedView",
    "ShufflePlanError",
    "classify_conversion",
    "duplicate_groups",
    "match_instruction_tile",
    "optimal_swizzled_layout",
    "permute_registers_for_tile",
    "plan_conversion",
    "plan_gather",
    "plan_warp_shuffle",
    "reduction_store_count",
    "vector_width_bits",
]
