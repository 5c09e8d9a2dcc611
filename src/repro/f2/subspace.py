"""Subspace algebra over F2: span, intersection, complement.

These are the set-theoretic tools of Sections 5.4 and the Appendix:
the warp-shuffle planner extends register sets to a basis, the optimal
swizzling algorithm finds the largest subspace with trivial
intersection against a union of subspaces (Lemma 9.5), and both need
complement construction.  Every operation runs on
:class:`~repro.f2.solve.XorBasis`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.f2.bitvec import iter_set_bits
from repro.f2.solve import XorBasis, kernel_basis


def reduce_to_basis(vectors: Sequence[int]) -> List[int]:
    """A subset-equivalent reduced basis of ``span(vectors)``.

    The returned vectors are the *original* vectors that were found
    independent, in input order (not the reduced forms), so callers
    that care about which generators survive — e.g. picking shuffle
    bases in input order — get stable results.
    """
    basis = XorBasis()
    return [v for v in vectors if basis.add(v)]


class Subspace:
    """An immutable subspace of F2^dim, stored as a reduced basis."""

    __slots__ = ("_dim", "_basis")

    def __init__(self, dim: int, generators: Iterable[int] = ()):
        self._dim = dim
        xb = XorBasis()
        for v in generators:
            if v >= (1 << dim):
                raise ValueError(f"vector {v:#x} not in F2^{dim}")
            xb.add(v)
        self._basis = tuple(xb.vectors())

    @property
    def rank(self) -> int:
        """Dimension of the subspace itself."""
        return len(self._basis)

    @property
    def basis(self) -> tuple:
        """The reduced basis vectors of the subspace."""
        return self._basis

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked generator matrix.

        If U = span(u_i) and V = span(v_j), solutions of
        ``sum a_i u_i = sum b_j v_j`` are the kernel of ``[U | V]``;
        the U-part of each kernel vector spans the intersection.
        """
        self._check_ambient(other)
        gens = []
        for k in kernel_basis(self._basis + other._basis):
            v = 0
            for idx in iter_set_bits(k):
                if idx < len(self._basis):
                    v ^= self._basis[idx]
            gens.append(v)
        return Subspace(self._dim, gens)

    def complement(self) -> "Subspace":
        """A complement: C with self + C = F2^dim and trivial overlap."""
        xb = XorBasis(self._basis)
        gens = [1 << i for i in range(self._dim) if xb.add(1 << i)]
        return Subspace(self._dim, gens)

    def trivial_intersection(self, other: "Subspace") -> bool:
        """True iff the subspaces meet only at zero."""
        return self.intersect(other).rank == 0

    def _check_ambient(self, other: "Subspace") -> None:
        if self._dim != other._dim:
            raise ValueError(
                f"ambient dimension mismatch: {self._dim} vs {other._dim}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self._dim == other._dim and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self._dim, self._basis))

    def __repr__(self) -> str:
        vecs = ", ".join(f"{v:#x}" for v in self._basis)
        return f"Subspace(dim={self._dim}, basis=[{vecs}])"
