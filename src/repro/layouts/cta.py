"""CGA-level layouts: distributing a tensor over the CTAs of a cluster.

Triton layouts carry a third hierarchy level above warps: the
cooperative thread arrays of a CGA (Hopper thread-block clusters).
``CtaLayout`` captures its parameters — how many CTAs the cluster has
per dimension, how many ways each dimension is actually *split*
(CTAs beyond the split hold duplicates), and the split order — and
lifts any per-CTA linear layout to a full-cluster layout with a
``block`` input dimension.

Conversions that move data *across* CTAs need distributed shared
memory or a global-memory round trip, which the intra-CTA simulator
does not model; :func:`same_block_component` is the planner-level
guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.dims import BLOCK
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


@dataclass(frozen=True)
class CtaLayout:
    """The CGA-level distribution parameters.

    ``ctas_per_cga[d]`` CTAs exist along dim ``d``; only
    ``cta_split_num[d]`` of them hold distinct slices (the rest
    duplicate — zero columns on the ``block`` dim).  ``cta_order[0]``
    is the fastest-moving dimension of the CTA grid.
    """

    ctas_per_cga: Tuple[int, ...]
    cta_split_num: Tuple[int, ...]
    cta_order: Tuple[int, ...]

    def __post_init__(self):
        rank = len(self.ctas_per_cga)
        if len(self.cta_split_num) != rank or len(self.cta_order) != rank:
            raise DimensionError("CtaLayout fields must share a rank")
        if sorted(self.cta_order) != list(range(rank)):
            raise DimensionError(
                f"cta_order {self.cta_order} is not a permutation"
            )
        for cga, split in zip(self.ctas_per_cga, self.cta_split_num):
            log2_int(cga)
            log2_int(split)
            if split > cga:
                raise DimensionError(
                    f"cta_split_num {split} exceeds ctas_per_cga {cga}"
                )

    @property
    def rank(self) -> int:
        """Tensor rank of the CTA grid."""
        return len(self.ctas_per_cga)

    def is_trivial(self) -> bool:
        """True iff the cluster has a single CTA."""
        return all(c == 1 for c in self.ctas_per_cga)

    def split_shape(self, shape: Sequence[int]) -> List[int]:
        """The per-CTA sub-tensor shape."""
        if len(shape) != self.rank:
            raise DimensionError(
                f"shape rank {len(shape)} != cta rank {self.rank}"
            )
        out = []
        for size, split in zip(shape, self.cta_split_num):
            if size % split != 0:
                raise DimensionError(
                    f"dim of size {size} not divisible by split {split}"
                )
            out.append(size // split)
        return out

    def lift(
        self, per_cta: LinearLayout, shape: Sequence[int]
    ) -> LinearLayout:
        """Lift a per-CTA layout to the full tensor of ``shape``.

        Block bits enumerate the CTA grid along ``cta_order``
        (fastest first); split bits index the high bits of their
        dimension, duplicate bits map to zero (broadcast across CTAs).
        """
        sub_shape = self.split_shape(shape)
        names = list(per_cta.out_dims)
        if len(names) != self.rank:
            raise DimensionError("per-CTA layout rank mismatch")
        for name, sub in zip(names, sub_shape):
            if per_cta.out_dim_size(name) != sub:
                raise DimensionError(
                    f"per-CTA layout covers {per_cta.out_dim_size(name)} "
                    f"of {name}, expected {sub}"
                )
        bases = per_cta.bases
        block_images = []
        for dim in self.cta_order:
            split_bits = log2_int(self.cta_split_num[dim])
            dup_bits = log2_int(self.ctas_per_cga[dim]) - split_bits
            base = sub_shape[dim]
            for b in range(split_bits):
                img = [0] * self.rank
                img[dim] = base << b
                block_images.append(tuple(img))
            block_images.extend(
                [tuple([0] * self.rank)] * dup_bits
            )
        if block_images:
            bases[BLOCK] = block_images
        outs = dict(zip(names, shape))
        return LinearLayout(bases, outs, require_surjective=True)


def strip_block(layout: LinearLayout) -> LinearLayout:
    """The per-CTA quotient of a clustered layout.

    Removes the ``block`` input dim and shrinks each logical dim by
    the bits the block component owned.  Valid when block bits are
    the top bits of their dimensions (the :meth:`CtaLayout.lift`
    structure); conversions between layouts with *equal* block
    components then reduce to this quotient, identical in every CTA.
    """
    if not layout.has_in_dim(BLOCK):
        return layout
    names = list(layout.out_dims)
    owned_bits = {name: 0 for name in names}
    for img in layout.bases[BLOCK]:
        for name, coord in zip(names, img):
            if coord:
                owned_bits[name] += 1
    new_sizes = {}
    for name in names:
        size = layout.out_dim_size(name)
        new_size = size >> owned_bits[name]
        # The block bits must be exactly the top bits of the dim.
        for img in layout.bases[BLOCK]:
            coord = dict(zip(names, img)).get(name, 0)
            if coord and coord < new_size:
                raise DimensionError(
                    "block component does not own the top bits of "
                    f"{name}; cannot take a per-CTA quotient"
                )
        new_sizes[name] = new_size
    bases = {
        d: images
        for d, images in layout.bases.items()
        if d != BLOCK
    }
    for d, images in bases.items():
        for img in images:
            for name, coord in zip(names, img):
                if coord >= new_sizes[name]:
                    raise DimensionError(
                        f"{d} bit reaches into the block-owned bits "
                        f"of {name}"
                    )
    return LinearLayout(bases, new_sizes, require_surjective=False)


def same_block_component(a: LinearLayout, b: LinearLayout) -> bool:
    """True iff a conversion between ``a`` and ``b`` stays within CTAs.

    The block components must agree exactly; otherwise data would have
    to cross CTA boundaries (distributed shared memory / global
    round trip), which intra-CTA codegen cannot express.
    """
    return a.basis_images_flat(BLOCK) == b.basis_images_flat(BLOCK)
