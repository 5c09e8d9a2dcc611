"""Affine layouts ``y = Ax ⊕ b`` — the extension from Section 8.

The paper's conclusion notes that flipping and slicing are not linear
(they do not fix the origin) but become expressible with a constant
offset XORed onto the output.  We implement that extension so the
flip/slice examples are covered and tested.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout


class AffineLayout:
    """An affine map: a :class:`LinearLayout` plus an output offset.

    ``apply(x) = linear.apply(x) XOR offset`` per output dim.
    """

    __slots__ = ("_linear", "_offset")

    def __init__(self, linear: LinearLayout, offset: Mapping[str, int]):
        self._linear = linear
        clean: Dict[str, int] = {}
        for name in linear.out_dims:
            value = offset.get(name, 0)
            if not 0 <= value < linear.out_dim_size(name):
                raise DimensionError(
                    f"offset {value} out of range for {name!r}"
                )
            clean[name] = value
        extraneous = set(offset) - set(linear.out_dims)
        if extraneous:
            raise DimensionError(f"unknown offset dims {sorted(extraneous)}")
        self._offset = clean

    @property
    def linear(self) -> LinearLayout:
        """The linear part ``A``."""
        return self._linear

    @property
    def offset(self) -> Dict[str, int]:
        """The constant offset ``b`` per output dim."""
        return dict(self._offset)

    def apply(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate ``A x XOR b`` on per-dim inputs."""
        out = self._linear.apply(inputs)
        return {d: v ^ self._offset[d] for d, v in out.items()}

    def flip(self, dim: str) -> "AffineLayout":
        """Reverse the order of a power-of-two output dim.

        ``flip(i) = size - 1 - i`` equals ``i XOR (size - 1)`` for a
        power-of-two size, hence an offset update — the conclusion's
        flipping example.
        """
        size = self._linear.out_dim_size(dim)
        new_offset = dict(self._offset)
        new_offset[dim] ^= size - 1
        return AffineLayout(self._linear, new_offset)

    def translate(self, dim: str, delta: int) -> "AffineLayout":
        """XOR-translate along a dim (covers aligned power-of-two
        slicing: selecting the block starting at an aligned offset)."""
        size = self._linear.out_dim_size(dim)
        if not 0 <= delta < size:
            raise DimensionError(f"delta {delta} out of range for {dim!r}")
        new_offset = dict(self._offset)
        new_offset[dim] ^= delta
        return AffineLayout(self._linear, new_offset)

    def compose(self, inner: "AffineLayout") -> "AffineLayout":
        """``self ∘ inner``: (A2(A1 x ⊕ b1)) ⊕ b2 = A2 A1 x ⊕ (A2 b1 ⊕ b2)."""
        new_linear = self._linear.compose(inner._linear)
        pushed = self._linear.apply(inner._offset)
        new_offset = {
            d: pushed[d] ^ self._offset[d] for d in self._linear.out_dims
        }
        return AffineLayout(new_linear, new_offset)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AffineLayout):
            return NotImplemented
        return (
            self._linear == other._linear and self._offset == other._offset
        )

    def __hash__(self) -> int:
        return hash((self._linear, tuple(sorted(self._offset.items()))))

    def __repr__(self) -> str:
        return f"AffineLayout({self._linear!r}, offset={self._offset})"
