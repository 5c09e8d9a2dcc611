"""Linear algebra over the two-element field :math:`\\mathbb{F}_2`.

This package is the mathematical substrate of the reproduction: every
layout in :mod:`repro.core` is ultimately a matrix over
:math:`\\mathbb{F}_2`, and every codegen algorithm in :mod:`repro.codegen`
is phrased in terms of the subspace operations implemented here.

Vectors are plain Python integers interpreted as bit-vectors (bit ``i``
is coordinate ``i``); a matrix is a sequence of such integers, its
columns.  Addition is XOR, multiplication is AND, so a matrix-vector
product is the XOR of the columns selected by the set bits of the
input vector.  One elimination, :class:`XorBasis`, answers every
question asked of a matrix: rank, kernel, and solutions with the free
variables zero.
"""

from repro.f2.bitvec import (
    is_power_of_two,
    iter_set_bits,
    log2_int,
    popcount,
    span_table,
)
from repro.f2.solve import (
    InconsistentSystemError,
    XorBasis,
    kernel_basis,
    rank,
)
from repro.f2.subspace import Subspace, reduce_to_basis

__all__ = [
    "InconsistentSystemError",
    "Subspace",
    "XorBasis",
    "is_power_of_two",
    "iter_set_bits",
    "kernel_basis",
    "log2_int",
    "popcount",
    "rank",
    "reduce_to_basis",
    "span_table",
]
