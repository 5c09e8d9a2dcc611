"""Gaussian elimination over F2: one XOR basis, one pass per column.

A matrix is a sequence of column bit-vectors.  :class:`XorBasis`
eliminates the columns in order, keeping one reduced vector per leading
bit and recording, for each, which input columns XOR into it.  That one
pass yields the rank, the kernel (every column that reduces to zero,
with its combination) and solutions with every free variable zero.

These back the layout operators of Section 4: the right inverse
(Definition 4.5) is a solve with the slack variables pinned to zero,
the paper's recipe for promoting broadcasting during layout conversion
(Section 5.4, item 2), and the kernel exposes the "zero columns" that
identify broadcast replication (Section 5.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class InconsistentSystemError(ValueError):
    """Raised when ``Mx = b`` has no solution over F2."""


class XorBasis:
    """A basis of the span of the columns added so far.

    Each basis vector is keyed by its leading bit and carries a
    *provenance*: the XOR of the labels of the added columns that sum
    to it.  A column is kept iff it is independent of the columns added
    before it, so the kept columns are the leftmost-independent pivots
    that row echelon form would choose.  Reducing ``b`` to zero against
    the basis therefore XORs the provenances into the solution of
    ``Mx = b`` supported on those pivots: every free variable is zero.
    """

    __slots__ = ("_vecs", "_labels")

    def __init__(
        self,
        columns: Iterable[int] = (),
        labels: Optional[Sequence[int]] = None,
    ):
        self._vecs: Dict[int, int] = {}
        self._labels: Dict[int, int] = {}
        for j, v in enumerate(columns):
            self.add(v, 1 << j if labels is None else labels[j])

    def reduce(self, v: int) -> Tuple[int, int]:
        """``(residue, provenance)``: ``v`` minus what the basis spans.

        The residue is 0 iff ``v`` is in the span; then ``v`` is the
        XOR of the columns whose labels make up the provenance.
        """
        vecs = self._vecs
        labels = self._labels
        combo = 0
        while v:
            lead = v.bit_length() - 1
            w = vecs.get(lead)
            if w is None:
                break
            v ^= w
            combo ^= labels[lead]
        return v, combo

    def add(self, v: int, label: int = 0) -> bool:
        """Add column ``v`` tagged ``label``; True iff it enlarged the span."""
        residue, combo = self.reduce(v)
        if not residue:
            return False
        lead = residue.bit_length() - 1
        self._vecs[lead] = residue
        self._labels[lead] = combo ^ label
        return True

    def solve(self, b: int) -> int:
        """The label combination of the columns that XOR to ``b``.

        Raises :class:`InconsistentSystemError` if ``b`` is outside the
        span.
        """
        residue, combo = self.reduce(b)
        if residue:
            raise InconsistentSystemError(
                f"Mx = b has no solution for b = {b:#x}"
            )
        return combo

    def vectors(self) -> List[int]:
        """The reduced basis vectors, sorted by leading bit."""
        return [self._vecs[k] for k in sorted(self._vecs)]

    def __len__(self) -> int:
        return len(self._vecs)


def rank(columns: Sequence[int]) -> int:
    """The rank of the matrix with these columns."""
    return len(XorBasis(columns))


def kernel_basis(columns: Sequence[int]) -> List[int]:
    """A basis of the null space ``{x : Mx = 0}``.

    One vector per column ``j`` that depends on the columns before it:
    bit ``j`` plus the pivot columns that sum to column ``j``.  For a
    distributed layout, nonzero kernel vectors identify hardware
    indices holding duplicated data (broadcasting, Section 5.1).
    """
    basis = XorBasis()
    kernel: List[int] = []
    for j, v in enumerate(columns):
        if not basis.add(v, 1 << j):
            kernel.append((1 << j) ^ basis.reduce(v)[1])
    return kernel

