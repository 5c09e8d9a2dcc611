"""Shape operations on layouts (Section 4.4, Theorem 9.3).

For each of Triton's shape operations (``tt.trans``, ``tt.reshape``,
``tt.join``, ``tt.split``, ``tt.expand_dims``, ``tt.broadcast``) these
functions produce, for a given input layout, the output layout that
makes the operation a register-level no-op — the closure property the
paper proves for distributed layouts.  The legacy layout system could
not do this for several of them (e.g. the transpose of an MMA layout),
forcing extra layout conversions.

Logical tensors are row-major: ``dim0`` is outermost (slowest) and the
last dim is fastest, matching "j is the fastest moving dimension".
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.dims import REGISTER, out_dim_names
from repro.core.errors import DimensionError
from repro.core.layout import LinearLayout
from repro.f2.bitvec import log2_int


def _shape_of(layout: LinearLayout) -> List[int]:
    return [layout.out_dim_size(d) for d in layout.out_dims]


def transpose_layout(
    layout: LinearLayout, perm: Sequence[int]
) -> LinearLayout:
    """The output layout of ``tt.trans`` with permutation ``perm``.

    ``perm[i]`` is the source dim that becomes output dim ``i``.  The
    same hardware element that held ``(x_0, ..., x_{r-1})`` now holds
    the transposed coordinate, so the op is a pure relabeling.  Legacy
    layouts could not express this for MMA layouts; linear layouts can
    (Section 4.4).
    """
    names = list(layout.out_dims)
    if sorted(perm) != list(range(len(names))):
        raise DimensionError(f"bad permutation {list(perm)}")
    reordered = layout.transpose_outs([names[p] for p in perm])
    result = reordered
    # Renaming must avoid transient collisions; go through unique temps.
    for i, old in enumerate([names[p] for p in perm]):
        result = result.rename_out_dim(old, f"__tmp{i}")
    for i in range(len(names)):
        result = result.rename_out_dim(f"__tmp{i}", f"dim{i}")
    return result


def flatten_outs(layout: LinearLayout) -> LinearLayout:
    """Collapse all output dims into ``dim0``, row-major (the last
    declared dim fastest).  This is the flattening
    :math:`\\mathbb{F}_2^{d_1} \\times \\dots \\cong \\mathbb{F}_2^d`
    used throughout Section 5.4.
    """
    total = layout.total_out_size()
    bases = {
        d: [(layout.basis_image_flat(d, i),) for i in range(
            layout.in_dim_size_log2(d))]
        for d in layout.in_dims
    }
    return LinearLayout(
        bases, {"dim0": total}, require_surjective=False
    )


def reshape_layout(
    layout: LinearLayout, new_shape: Sequence[int]
) -> LinearLayout:
    """The output layout of ``tt.reshape`` to ``new_shape``.

    Row-major reshape re-chunks the bits of the flattened index, so
    any linear layout stays linear — the key fact behind Theorem 9.3's
    "reshape any tensor into the form 2 x 2 x ... x 2".
    """
    new_total = 1
    for s in new_shape:
        log2_int(s)
        new_total *= s
    if new_total != layout.total_out_size():
        raise DimensionError(
            f"reshape size mismatch: {new_total} != "
            f"{layout.total_out_size()}"
        )
    flat = flatten_outs(layout)
    names = out_dim_names(len(new_shape))
    logs = [log2_int(s) for s in new_shape]
    # Split flat bits (fastest = last dim) back into per-dim coords.
    bases: Dict[str, list] = {}
    for d in flat.in_dims:
        images = []
        for i in range(flat.in_dim_size_log2(d)):
            packed = flat.basis_image(d, i)[0]
            coords = []
            shift = 0
            for log in reversed(logs):
                coords.append((packed >> shift) & ((1 << log) - 1))
                shift += log
            coords.reverse()
            images.append(tuple(coords))
        bases[d] = images
    return LinearLayout(
        bases,
        dict(zip(names, new_shape)),
        require_surjective=False,
    )


def expand_dims_layout(layout: LinearLayout, axis: int) -> LinearLayout:
    """The output layout of ``tt.expand_dims`` inserting a size-1 dim."""
    rank = len(layout.out_dims)
    if not 0 <= axis <= rank:
        raise DimensionError(f"axis {axis} out of range for rank {rank}")
    old_shape = _shape_of(layout)
    new_shape = old_shape[:axis] + [1] + old_shape[axis:]
    return reshape_layout(layout, new_shape)


def broadcast_layout(
    layout: LinearLayout, axis: int, new_size: int
) -> LinearLayout:
    """The output layout of ``tt.broadcast`` along ``axis``.

    The input has size 1 at ``axis``; the output enumerates the new
    positions with fresh register bits, so every thread holds the full
    broadcast extent in registers (all copies of the same value).  The
    op itself is then a register replication with no cross-thread
    traffic.
    """
    shape = _shape_of(layout)
    if shape[axis] != 1:
        raise DimensionError(
            f"broadcast source dim {axis} has size {shape[axis]}, not 1"
        )
    extra = log2_int(new_size)
    names = list(layout.out_dims)
    new_outs = {
        name: (new_size if i == axis else layout.out_dim_size(name))
        for i, name in enumerate(names)
    }
    bases = layout.bases
    reg_images = list(bases.get(REGISTER, []))
    for bit in range(extra):
        img = [0] * len(names)
        img[axis] = 1 << bit
        reg_images.append(tuple(img))
    bases[REGISTER] = reg_images
    return LinearLayout(bases, new_outs, require_surjective=False)


def join_layout(layout: LinearLayout) -> LinearLayout:
    """The output layout of ``tt.join``: append a minor dim of size 2.

    The joined pair lives in adjacent registers of the same thread.
    """
    names = list(layout.out_dims)
    new_name = f"dim{len(names)}"
    new_outs = dict(layout.out_dim_sizes())
    new_outs[new_name] = 2
    bases = {}
    for d in layout.in_dims:
        bases[d] = [tuple(img) + (0,) for img in layout.bases[d]]
    reg = list(bases.get(REGISTER, []))
    reg.insert(0, (0,) * len(names) + (1,))
    bases[REGISTER] = reg
    return LinearLayout(bases, new_outs, require_surjective=False)


def split_layout(layout: LinearLayout) -> LinearLayout:
    """The input layout relation of ``tt.split``: drop a trailing size-2
    dim held in the first register bit.

    Raises :class:`DimensionError` when the last dim is not a size-2
    register-resident dim — in that case the engine must insert a
    conversion first.
    """
    names = list(layout.out_dims)
    last = names[-1]
    if layout.out_dim_size(last) != 2:
        raise DimensionError("split requires a trailing dim of size 2")
    reg_images = layout.bases.get(REGISTER, [])
    axis = len(names) - 1
    if not reg_images or reg_images[0] != (0,) * axis + (1,):
        raise DimensionError(
            "split requires the trailing dim in the first register bit"
        )
    bases = {}
    for d in layout.in_dims:
        images = layout.bases[d]
        if d == REGISTER:
            images = images[1:]
        for img in images:
            if img[axis] != 0:
                raise DimensionError(
                    "split requires the trailing dim isolated in the "
                    "first register bit"
                )
        bases[d] = [tuple(img[:axis]) for img in images]
    new_outs = {n: layout.out_dim_size(n) for n in names[:-1]}
    return LinearLayout(bases, new_outs, require_surjective=False)
