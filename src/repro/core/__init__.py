"""The paper's primary contribution: linear layouts over F2.

A :class:`LinearLayout` is a linear map between *labeled* vector spaces
over F2 (Definition 4.1).  Input dimensions are hardware resources
(``"register"``, ``"lane"``, ``"warp"``, ``"block"``, or ``"offset"``
for memory layouts); output dimensions are the logical tensor's
dimensions (``"dim0"``, ``"dim1"``, ...).

The public surface re-exports the layout type, its operator algebra
(Definitions 4.2-4.5), the structural predicates of Definitions 4.10
and 4.14, and the affine extension sketched in the paper's conclusion.
"""

from repro.core.affine import AffineLayout
from repro.core.dims import (
    BLOCK,
    LANE,
    OFFSET,
    REGISTER,
    WARP,
    out_dim_names,
)
from repro.core.errors import (
    DimensionError,
    LayoutError,
    NonInvertibleLayoutError,
    NotDivisibleError,
)
from repro.core.layout import LinearLayout, make_identity
from repro.core.ops import (
    divide_left,
    divide_left_or_raise,
    is_divisible_by,
    num_identity_low_bits,
    product_pow2,
)
from repro.core.properties import (
    is_distributed_layout,
    is_memory_layout,
    largest_vectorization,
    num_contiguous_elements,
)
from repro.core.reshape import (
    broadcast_layout,
    expand_dims_layout,
    flatten_outs,
    join_layout,
    reshape_layout,
    split_layout,
    transpose_layout,
)

__all__ = [
    "AffineLayout",
    "BLOCK",
    "DimensionError",
    "LANE",
    "LayoutError",
    "LinearLayout",
    "NonInvertibleLayoutError",
    "NotDivisibleError",
    "OFFSET",
    "REGISTER",
    "WARP",
    "broadcast_layout",
    "divide_left",
    "divide_left_or_raise",
    "expand_dims_layout",
    "is_divisible_by",
    "make_identity",
    "num_identity_low_bits",
    "product_pow2",
    "flatten_outs",
    "is_distributed_layout",
    "is_memory_layout",
    "join_layout",
    "largest_vectorization",
    "num_contiguous_elements",
    "out_dim_names",
    "reshape_layout",
    "split_layout",
    "transpose_layout",
]
