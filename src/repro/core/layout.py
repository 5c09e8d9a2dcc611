"""The :class:`LinearLayout` type — Definition 4.1 of the paper.

A linear layout is a linear map between labeled vector spaces over F2:
a binary matrix (Section 4.1).  It is stored as that matrix's columns.
For every input dimension (e.g. ``register``, ``lane``, ``warp``) we
keep one column per input bit: the image of that bit, an integer whose
bits are the output coordinates flattened row-major (the last output
dim holds the least significant bits).  Applying the layout XORs
together the columns of the set input bits — the binary matrix-vector
product of Section 4.1.  Per-output-dim coordinates (:attr:`bases`,
:meth:`apply`, :meth:`to_dict`) are derived from the columns on demand.

Sizes of all dimensions are powers of two; the *log2* of each size is
the number of bits of the corresponding labeled subspace.  Rank,
inverses and kernels run on the columns through
:class:`~repro.f2.solve.XorBasis`.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import cache as _cache
from repro.core.errors import (
    DimensionError,
    LayoutError,
    NonInvertibleLayoutError,
)
from repro.f2.bitvec import log2_int, span_table
from repro.f2.solve import XorBasis, rank

Bases = Dict[str, List[Tuple[int, ...]]]
Columns = Dict[str, Tuple[int, ...]]


class CanonicalKey:
    """A layout's structural identity with a precomputed hash.

    Canonical keys appear inside every cache key the layout machinery
    builds; Python tuples re-hash their contents on each lookup, which
    for large layouts dominates the cache probe.  Wrapping the tuple
    once makes repeated hashing O(1).
    """

    __slots__ = ("key", "_hash")

    def __init__(self, key: Tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, CanonicalKey):
            return NotImplemented
        return self._hash == other._hash and self.key == other.key

    def __repr__(self) -> str:
        return f"CanonicalKey({self.key!r})"


def _row_major_shifts(sizes: Mapping[str, int]) -> Dict[str, int]:
    """Bit offset of each dim in the row-major packing (last dim lowest)."""
    shifts: Dict[str, int] = {}
    shift = 0
    for name in reversed(list(sizes)):
        shifts[name] = shift
        shift += log2_int(sizes[name])
    return {name: shifts[name] for name in sizes}


def _moves(
    fields: Mapping[str, Tuple[int, int]], dst_shifts: Mapping[str, int]
) -> List[Tuple[int, int, int]]:
    """``(src_shift, mask, dst_shift)`` for every dim kept in ``dst_shifts``."""
    return [
        (shift, mask, dst_shifts[name])
        for name, (shift, mask) in fields.items()
        if name in dst_shifts
    ]


def _move(v: int, moves: Sequence[Tuple[int, int, int]]) -> int:
    """Repack one column: each coordinate field to its new offset."""
    out = 0
    for shift, mask, dst in moves:
        out |= ((v >> shift) & mask) << dst
    return out


class LinearLayout:
    """A linear map between labeled F2 vector spaces.

    Parameters
    ----------
    bases:
        ``{in_dim: [image_of_bit_0, image_of_bit_1, ...]}`` where each
        image is a sequence of ints, one per output dimension, in the
        order of ``out_dims``.  Input dim sizes are implied:
        ``2 ** len(bases[in_dim])``.
    out_dims:
        ``{out_dim: size}`` with every size a power of two.  Order is
        significant: it fixes the order of coordinates in basis images
        and the flattening order (first dim is the *slowest* moving,
        i.e. holds the most significant bits when flattened).
    require_surjective:
        When True (the default) the constructor asserts the layout is
        surjective onto the full output space, which Definition 4.10
        requires of distributed layouts.
    """

    __slots__ = (
        "_flat",
        "_in_dims",
        "_out_dims",
        "_fields",
        "_out_bits",
        "_surjective",
        "_key",
        "_hash",
        "_memo",
    )

    def __init__(
        self,
        bases: Mapping[str, Sequence[Sequence[int]]],
        out_dims: Mapping[str, int],
        require_surjective: bool = True,
    ):
        outs: Dict[str, int] = {}
        for name, size in out_dims.items():
            log2_int(size)  # validates power of two
            outs[name] = size
        n_out = len(outs)
        shifts = _row_major_shifts(outs)
        fields = [(shifts[name], outs[name]) for name in outs]
        flat: Columns = {}
        for in_dim, vecs in bases.items():
            columns: List[int] = []
            for vec in vecs:
                tup = tuple(int(x) for x in vec)
                if len(tup) != n_out:
                    raise DimensionError(
                        f"basis image {tup} of {in_dim!r} has "
                        f"{len(tup)} coords, expected {n_out}"
                    )
                v = 0
                for coord, (shift, size) in zip(tup, fields):
                    if not 0 <= coord < size:
                        raise DimensionError(
                            f"coordinate {coord} of {in_dim!r} exceeds "
                            f"output size 2**{log2_int(size)}"
                        )
                    v |= coord << shift
                columns.append(v)
            flat[in_dim] = tuple(columns)
        self._init(flat, outs, require_surjective)

    @classmethod
    def from_flat(
        cls,
        columns: Mapping[str, Sequence[int]],
        out_dims: Mapping[str, int],
        require_surjective: bool = True,
    ) -> "LinearLayout":
        """Build from the matrix's columns, written down directly.

        ``columns[in_dim][bit]`` is the image of that input bit with
        the output coordinates flattened row-major (the last out dim
        in the low bits), the form :meth:`basis_images_flat` returns.
        A construction that proves its result surjective passes
        ``require_surjective=False`` and skips the rank check.
        """
        outs: Dict[str, int] = {}
        for name, size in out_dims.items():
            log2_int(size)
            outs[name] = size
        bound = 1 << sum(log2_int(size) for size in outs.values())
        flat: Columns = {}
        for in_dim, vecs in columns.items():
            flat[in_dim] = tuple(int(v) for v in vecs)
            for v in flat[in_dim]:
                if not 0 <= v < bound:
                    raise DimensionError(
                        f"column {v} of {in_dim!r} exceeds the output "
                        f"space 2**{bound.bit_length() - 1}"
                    )
        layout = cls.__new__(cls)
        layout._init(flat, outs, require_surjective)
        return layout

    @classmethod
    def _from_flat(cls, flat: Columns, out_dims: Dict[str, int]) -> "LinearLayout":
        """Build from row-major flat columns already known to fit."""
        layout = cls.__new__(cls)
        layout._init(flat, out_dims, require_surjective=False)
        return layout

    def _init(
        self, flat: Columns, out_dims: Dict[str, int], require_surjective: bool
    ) -> None:
        self._flat = flat
        self._out_dims = out_dims
        self._in_dims: Dict[str, int] = {
            d: 1 << len(v) for d, v in flat.items()
        }
        shifts = _row_major_shifts(out_dims)
        self._fields: Dict[str, Tuple[int, int]] = {
            name: (shifts[name], size - 1) for name, size in out_dims.items()
        }
        self._out_bits = sum(log2_int(s) for s in out_dims.values())
        self._key = CanonicalKey((tuple(flat.items()), tuple(out_dims.items())))
        self._hash = hash(self._key)
        self._memo: Dict[object, object] = {}
        # Computed on first use: most layouts never ask.
        self._surjective: Optional[bool] = None
        if require_surjective and not self.is_surjective():
            raise LayoutError(
                "layout is not surjective onto its codomain; pass "
                "require_surjective=False if this is intentional"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "LinearLayout":
        """The trivial layout between zero-dimensional spaces."""
        return LinearLayout({}, {})

    @staticmethod
    def identity1d(size: int, in_dim: str, out_dim: str) -> "LinearLayout":
        """The identity map F2^log2(size) -> F2^log2(size).

        This is the paper's ``id_k^{i,j}`` (Appendix, Notation).
        """
        bits = log2_int(size)
        return LinearLayout(
            {in_dim: [(1 << i,) for i in range(bits)]}, {out_dim: size}
        )

    @staticmethod
    def zeros1d(size: int, in_dim: str, out_dim: str, out_size: int = 1) -> "LinearLayout":
        """Map every input of ``in_dim`` to zero (pure broadcasting).

        A zero column in the layout matrix marks replicated data
        (Section 5.1, Broadcasting).
        """
        bits = log2_int(size)
        return LinearLayout(
            {in_dim: [(0,)] * bits},
            {out_dim: out_size},
            require_surjective=(out_size == 1),
        )

    @staticmethod
    def strided1d(
        size: int, stride: int, in_dim: str, out_dim: str
    ) -> "LinearLayout":
        """Map input i to ``i * stride`` for a power-of-two stride."""
        bits = log2_int(size)
        log_stride = log2_int(stride)
        out_size = 1 << (bits + log_stride)
        return LinearLayout(
            {in_dim: [(1 << (i + log_stride),) for i in range(bits)]},
            {out_dim: out_size},
            require_surjective=False,
        )

    # ------------------------------------------------------------------
    # Interning and memoization
    # ------------------------------------------------------------------
    def canonical_key(self) -> CanonicalKey:
        """A hashable key identifying the layout structurally.

        Two layouts are ``==`` iff their canonical keys are equal: the
        key lists the flat columns per input dim (in declaration
        order) and the output dims with their sizes (in order), so it
        identifies the same map over the same dims in the same order.
        It is the interning key of :meth:`intern` and the cache key
        every memoized derivation hangs off.
        """
        return self._key

    def intern(self) -> "LinearLayout":
        """The canonical representative of this layout.

        Structurally equal layouts intern to the *same object*
        (hash-consing), so repeated anchor construction and plan
        lookups collapse to identity checks.  With caching disabled
        this returns ``self`` unchanged.
        """
        return _cache.intern_layout(self)

    def _memoized(self, name: str, compute):
        """Per-instance memo for derived values, behind the off-switch.

        Layouts are immutable, so derivations are cached forever on
        the instance; ``REPRO_CACHE=0`` and :func:`repro.cache.disabled`
        bypass the memo (it never needs invalidation — only bypassing).
        """
        if not _cache.enabled():
            return compute()
        memo = self._memo
        if name not in memo:
            memo[name] = compute()
        return memo[name]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def bases(self) -> Bases:
        """The basis images, ``{in_dim: [tuple per input bit]}``."""
        view = self._memoized(
            "bases",
            lambda: {
                d: [self._coords(v) for v in columns]
                for d, columns in self._flat.items()
            },
        )
        return {d: list(v) for d, v in view.items()}

    @property
    def in_dims(self) -> List[str]:
        """Input dim names, in declaration order."""
        return list(self._in_dims)

    @property
    def out_dims(self) -> List[str]:
        """Output dim names, in declaration order."""
        return list(self._out_dims)

    def has_in_dim(self, dim: str) -> bool:
        """True iff ``dim`` is an input dimension."""
        return dim in self._in_dims

    def has_out_dim(self, dim: str) -> bool:
        """True iff ``dim`` is an output dimension."""
        return dim in self._out_dims

    def in_dim_size(self, dim: str) -> int:
        """Size of an input dim (1 for absent dims, by convention)."""
        if dim not in self._in_dims:
            return 1
        return self._in_dims[dim]

    def out_dim_size(self, dim: str) -> int:
        """Size of an output dim; raises for unknown names."""
        if dim not in self._out_dims:
            raise DimensionError(f"no output dim {dim!r}")
        return self._out_dims[dim]

    def in_dim_size_log2(self, dim: str) -> int:
        """Bits of an input dim."""
        return log2_int(self.in_dim_size(dim))

    def out_dim_size_log2(self, dim: str) -> int:
        """Bits of an output dim."""
        return log2_int(self.out_dim_size(dim))

    def out_dim_sizes(self) -> Dict[str, int]:
        """All output dims and sizes, in order."""
        return dict(self._out_dims)

    def in_dim_sizes(self) -> Dict[str, int]:
        """All input dims and sizes, in order."""
        return dict(self._in_dims)

    def total_in_bits(self) -> int:
        """Total input bits across all dims."""
        return sum(len(v) for v in self._flat.values())

    def total_out_bits(self) -> int:
        """Total output bits across all dims."""
        return self._out_bits

    def total_in_size(self) -> int:
        """Number of distinct inputs (2^total_in_bits)."""
        return 1 << self.total_in_bits()

    def total_out_size(self) -> int:
        """Number of logical elements (2^total_out_bits)."""
        return 1 << self._out_bits

    def _coords(self, flat: int) -> Tuple[int, ...]:
        """Per-out-dim coordinates of a row-major flat output."""
        return tuple((flat >> shift) & mask for shift, mask in self._fields.values())

    def basis_image(self, in_dim: str, bit: int) -> Tuple[int, ...]:
        """The image of basis bit ``bit`` of ``in_dim``."""
        return self._coords(self._flat[in_dim][bit])

    def basis_image_flat(
        self, in_dim: str, bit: int, order: Optional[Sequence[str]] = None
    ) -> int:
        """Same, flattened over the output dims.

        ``order`` lists out dims fastest-first; the default is the
        reverse of the declared out-dim order, i.e. row-major ("j is
        the fastest moving dimension", Section 4.1).
        """
        v = self._flat[in_dim][bit]
        return v if order is None else _move(v, self._reorder(order))

    def basis_images_flat(
        self, in_dim: str, order: Optional[Sequence[str]] = None
    ) -> List[int]:
        """All basis images of an input dim, flattened row-major.

        These are the sets the paper calls ``L_Reg``, ``L_Thr``,
        ``L_Wrp`` in Section 5.4 — the columns of the layout matrix
        acting on each resource, viewed in the flattened logical
        tensor F2^d.
        """
        columns = self._flat.get(in_dim, ())
        if order is None:
            return list(columns)
        moves = self._reorder(order)
        return [_move(v, moves) for v in columns]

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply_flat(self, inputs: Mapping[str, int]) -> int:
        """The row-major flat output of per-dim input coordinates."""
        out = 0
        for in_dim, columns in self._flat.items():
            value = inputs.get(in_dim, 0)
            if not 0 <= value < self._in_dims[in_dim]:
                raise DimensionError(
                    f"input {value} out of range for dim {in_dim!r} "
                    f"of size {self._in_dims[in_dim]}"
                )
            bit = 0
            while value:
                if value & 1:
                    out ^= columns[bit]
                value >>= 1
                bit += 1
        extraneous = set(inputs) - set(self._flat)
        if extraneous:
            raise DimensionError(f"unknown input dims: {sorted(extraneous)}")
        return out

    def apply(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Apply the map to per-dim input coordinates.

        Missing input dims default to 0.  Returns per-out-dim
        coordinates.
        """
        return dict(zip(self._out_dims, self._coords(self._apply_flat(inputs))))

    def apply_flat(
        self,
        inputs: Mapping[str, int],
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Apply and flatten the output (row-major by default)."""
        flat = self._apply_flat(inputs)
        return flat if order is None else _move(flat, self._reorder(order))

    def flat_table(self, in_order: Sequence[str]) -> np.ndarray:
        """:meth:`apply_flat` of every input at once, as int64.

        Entry ``i`` is the row-major flattened output of the input
        whose flattened index is ``i``, with ``in_order`` listing the
        input dims to enumerate, fastest-first.  As in :meth:`apply`,
        dims it leaves out are held at 0, and dims the layout lacks
        have size 1.

        The table is the :func:`~repro.f2.bitvec.span_table` of the
        flat columns: O(N) array work, no per-element Python.
        """
        return span_table(
            [v for dim in in_order for v in self._flat.get(dim, ())]
        )

    def _flat_order(self, order: Optional[Sequence[str]]) -> List[str]:
        """Out dims fastest-first; default row-major (last dim fastest)."""
        if order is None:
            return list(reversed(list(self._out_dims)))
        if sorted(order) != sorted(self._out_dims):
            raise DimensionError(f"bad flatten order {list(order)}")
        return list(order)

    def _reorder(self, order: Sequence[str]) -> List[Tuple[int, int, int]]:
        """Moves from the row-major packing to ``order`` (fastest-first)."""
        slowest_first = reversed(self._flat_order(order))
        return _moves(
            self._fields,
            _row_major_shifts({name: self._out_dims[name] for name in slowest_first}),
        )

    def unflatten_out(
        self, flat: int, order: Optional[Sequence[str]] = None
    ) -> Dict[str, int]:
        """Split a flattened output coordinate back into per-dim coords."""
        coords = {}
        for name in self._flat_order(order):
            log = log2_int(self._out_dims[name])
            coords[name] = flat & ((1 << log) - 1)
            flat >>= log
        return {name: coords[name] for name in self._out_dims}

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_surjective(self) -> bool:
        """True iff the image is the whole output space."""
        if self._surjective is None:
            self._surjective = (
                rank([v for vs in self._flat.values() for v in vs])
                == self._out_bits
            )
        return self._surjective

    def is_injective(self) -> bool:
        """True iff no two inputs map to the same output."""
        columns = [v for vs in self._flat.values() for v in vs]
        return rank(columns) == len(columns)

    def is_invertible(self) -> bool:
        """True iff the map is a bijection."""
        return self.is_surjective() and self.total_in_bits() == self._out_bits

    def is_trivially_injective_in(self, in_dim: str) -> bool:
        """True iff the bases of ``in_dim`` alone are independent."""
        basis = XorBasis()
        return all(basis.add(v) for v in self._flat.get(in_dim, ()))

    # ------------------------------------------------------------------
    # Operator algebra (Definitions 4.2-4.5)
    # ------------------------------------------------------------------
    def __mul__(self, other: "LinearLayout") -> "LinearLayout":
        """The product of layouts (Definition 4.3).

        For dims shared between the factors, ``self``'s bits occupy the
        low positions and ``other``'s are shifted up — this is how a
        complex layout is built incrementally "from registers to
        threads to warps" (Section 4.2).  The matrix view is the
        label-wise block-diagonal of the two factors.
        """
        if not isinstance(other, LinearLayout):
            return NotImplemented
        out_dims: Dict[str, int] = dict(self._out_dims)
        for name, size in other._out_dims.items():
            out_dims[name] = out_dims.get(name, 1) * size
        shifts = _row_major_shifts(out_dims)
        mine = _moves(self._fields, shifts)
        theirs = _moves(
            other._fields,
            {
                name: shifts[name] + log2_int(self._out_dims.get(name, 1))
                for name in other._out_dims
            },
        )
        flat: Columns = {}
        for in_dim in list(self._flat) + [
            d for d in other._flat if d not in self._flat
        ]:
            flat[in_dim] = tuple(
                [_move(v, mine) for v in self._flat.get(in_dim, ())]
                + [_move(v, theirs) for v in other._flat.get(in_dim, ())]
            )
        return LinearLayout._from_flat(flat, out_dims)

    def compose(self, inner: "LinearLayout") -> "LinearLayout":
        """``self ∘ inner``: apply ``inner`` first (Definition 4.2).

        ``inner``'s output dims must match ``self``'s input dims in
        name and size.
        """
        if set(inner._out_dims) != set(self._in_dims):
            raise DimensionError(
                f"cannot compose: inner outs {inner.out_dims} != "
                f"outer ins {self.in_dims}"
            )
        for name in inner._out_dims:
            if inner.out_dim_size(name) != self.in_dim_size(name):
                raise DimensionError(
                    f"size mismatch on {name!r}: "
                    f"{inner.out_dim_size(name)} vs {self.in_dim_size(name)}"
                )
        fields = inner._fields.items()
        flat = {
            in_dim: tuple(
                self._apply_flat(
                    {name: (v >> shift) & mask for name, (shift, mask) in fields}
                )
                for v in columns
            )
            for in_dim, columns in inner._flat.items()
        }
        return LinearLayout._from_flat(flat, dict(self._out_dims))

    def _preimages(
        self, targets: Mapping[str, Sequence[int]]
    ) -> "LinearLayout":
        """The layout ``X`` with ``self ∘ X`` sending each target column
        to itself, every free variable zero.

        ``targets`` are flat columns in ``self``'s output packing, per
        new input dim; the result's output dims are ``self``'s input
        dims.  ``self``'s columns are eliminated in declaration order,
        each labeled with its bit in the result's row-major packing,
        so a solve yields the result's flat column directly.
        """
        shifts = _row_major_shifts(self._in_dims)
        columns: List[int] = []
        labels: List[int] = []
        for in_dim, images in self._flat.items():
            columns.extend(images)
            labels.extend(1 << (shifts[in_dim] + k) for k in range(len(images)))
        basis = XorBasis(columns, labels)
        flat = {d: tuple(basis.solve(v) for v in vs) for d, vs in targets.items()}
        return LinearLayout._from_flat(flat, dict(self._in_dims))

    def invert(self) -> "LinearLayout":
        """The two-sided inverse of a bijective layout.

        The result maps the old output dims to the old input dims.  A
        bijection has no free variables, so its right inverse is it.
        """
        if not self.is_invertible():
            raise NonInvertibleLayoutError(
                "layout is not invertible (need bijectivity)"
            )
        return self.right_inverse()

    def right_inverse(self) -> "LinearLayout":
        """A right inverse of a surjective layout (Definition 4.5).

        Free variables are zeroed, giving the minimal-Hamming-weight
        representative that promotes broadcasting (Section 5.4).  Every
        output bit is in the image, so each unit column has a preimage.
        """
        if not self.is_surjective():
            raise NonInvertibleLayoutError(
                "right inverse requires surjectivity"
            )
        return self._memoized(
            "right_inverse",
            lambda: self._preimages(
                {
                    name: [1 << (shift + k) for k in range(mask.bit_length())]
                    for name, (shift, mask) in self._fields.items()
                }
            ),
        )

    def invert_and_compose(self, other: "LinearLayout") -> "LinearLayout":
        """``other^{-1} ∘ self`` — the conversion map of Section 5.4.

        Both layouts must share output dims (the logical tensor).  The
        result maps ``self``'s inputs (source hardware indices) to
        ``other``'s inputs (destination hardware indices), choosing the
        free-variables-zero solution so broadcast destinations read
        from a single source (Section 5.4, item 2).
        """
        if dict(self._out_dims) != dict(other._out_dims):
            raise DimensionError(
                f"conversion requires equal codomains: "
                f"{self._out_dims} vs {other._out_dims}"
            )
        if not other.is_surjective():
            raise NonInvertibleLayoutError(
                "destination layout must be surjective"
            )

        def compute() -> "LinearLayout":
            # Solve other @ X = self column-wise over F2, with self's
            # columns in other's packing.
            moves = _moves(
                self._fields,
                {name: shift for name, (shift, _) in other._fields.items()},
            )
            targets = {
                d: [_move(v, moves) for v in columns]
                for d, columns in self._flat.items()
            }
            return other._preimages(targets)

        return _cache.cached(
            _cache.derivations,
            ("invert_and_compose", self._key, other._key),
            compute,
        )

    # ------------------------------------------------------------------
    # Dim surgery
    # ------------------------------------------------------------------
    def sublayout(
        self, in_dims: Sequence[str], out_dims: Sequence[str]
    ) -> "LinearLayout":
        """Restrict to a subset of in and out dims.

        Keeps the bases of the selected input dims, projected onto the
        selected output dims.  The restriction of a linear map is
        linear (Proposition 4.8's proof idea).
        """
        for d in in_dims:
            if d not in self._in_dims:
                raise DimensionError(f"no input dim {d!r}")
        for d in out_dims:
            if d not in self._out_dims:
                raise DimensionError(f"no output dim {d!r}")
        new_outs = {
            name: size
            for name, size in self._out_dims.items()
            if name in out_dims
        }
        moves = _moves(self._fields, _row_major_shifts(new_outs))
        flat = {d: tuple(_move(v, moves) for v in self._flat[d]) for d in in_dims}
        return LinearLayout._from_flat(flat, new_outs)

    def rename_in_dim(self, old: str, new: str) -> "LinearLayout":
        """Rename one input dim (pure relabeling)."""
        if old not in self._flat:
            raise DimensionError(f"no input dim {old!r}")
        flat = {(new if d == old else d): v for d, v in self._flat.items()}
        return LinearLayout._from_flat(flat, dict(self._out_dims))

    def rename_out_dim(self, old: str, new: str) -> "LinearLayout":
        """Rename one output dim (pure relabeling)."""
        if old not in self._out_dims:
            raise DimensionError(f"no output dim {old!r}")
        outs = {
            (new if d == old else d): s for d, s in self._out_dims.items()
        }
        return LinearLayout._from_flat(dict(self._flat), outs)

    def transpose_ins(self, order: Sequence[str]) -> "LinearLayout":
        """Reorder the input dims (a relabeling, not a new map)."""
        if sorted(order) != sorted(self._in_dims):
            raise DimensionError(f"bad in-dim order {order}")
        flat = {d: self._flat[d] for d in order}
        return LinearLayout._from_flat(flat, dict(self._out_dims))

    def transpose_outs(self, order: Sequence[str]) -> "LinearLayout":
        """Reorder the output dims.

        Changes which dim is fastest-moving when flattening; this is
        the layout-level realization of ``tt.trans`` (Section 4.4).
        """
        if sorted(order) != sorted(self._out_dims):
            raise DimensionError(f"bad out-dim order {order}")
        outs = {name: self._out_dims[name] for name in order}
        moves = _moves(self._fields, _row_major_shifts(outs))
        flat = {
            d: tuple(_move(v, moves) for v in columns)
            for d, columns in self._flat.items()
        }
        return LinearLayout._from_flat(flat, outs)

    def resize_in_dim(self, dim: str, new_size: int) -> "LinearLayout":
        """Grow (with zero/broadcast bases) or shrink an input dim."""
        bits = log2_int(new_size)
        images = self._flat.get(dim, ())
        flat = dict(self._flat)
        flat[dim] = (images + (0,) * bits)[:bits]
        return LinearLayout._from_flat(flat, dict(self._out_dims))

    def concat_ins(self, other: "LinearLayout") -> "LinearLayout":
        """Concatenate input dims of two layouts with equal codomains."""
        if dict(self._out_dims) != dict(other._out_dims):
            raise DimensionError("concat_ins requires equal codomains")
        if set(self._in_dims) & set(other._in_dims):
            raise DimensionError("concat_ins requires disjoint input dims")
        flat = dict(self._flat)
        flat.update(other._flat)
        return LinearLayout._from_flat(flat, dict(self._out_dims))

    # ------------------------------------------------------------------
    # Free variables / broadcasting
    # ------------------------------------------------------------------
    def free_variable_masks(self) -> Dict[str, int]:
        """Per input dim, a bitmask of *free* bits.

        A free bit either maps to zero or repeats the image of an
        earlier bit modulo the span of the earlier columns; flipping it
        never changes which logical element the input refers to beyond
        replication.  Zero columns are the broadcast markers of
        Section 5.1.
        """
        return dict(
            self._memoized("free_variable_masks", self._free_variable_masks)
        )

    def _free_variable_masks(self) -> Dict[str, int]:
        basis = XorBasis()
        return {
            in_dim: sum(
                1 << bit for bit, v in enumerate(columns) if not basis.add(v)
            )
            for in_dim, columns in self._flat.items()
        }

    def zero_basis_masks(self) -> Dict[str, int]:
        """Per input dim, a bitmask of bits whose image is exactly zero."""
        return {
            d: sum(1 << i for i, v in enumerate(columns) if v == 0)
            for d, columns in self._flat.items()
        }

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinearLayout):
            return NotImplemented
        return self._key == other._key

    def equivalent(self, other: "LinearLayout") -> bool:
        """Equality up to input/output dim *order* (same map).

        Used by the engine to turn conversions between "equivalent"
        layouts into no-ops (the welford case of Section 6.2).
        """
        if self is other:
            return True  # interned layouts compared with themselves
        if not isinstance(other, LinearLayout):
            return False
        if dict(self._in_dims) != dict(other._in_dims):
            return False
        if dict(self._out_dims) != dict(other._out_dims):
            return False
        moves = _moves(
            other._fields,
            {name: shift for name, (shift, _) in self._fields.items()},
        )
        return all(
            columns == tuple(_move(v, moves) for v in other._flat[d])
            for d, columns in self._flat.items()
        )

    def __hash__(self) -> int:
        # Precomputed from the canonical key, so hashing is as cheap
        # as the dict lookups interning and the plan cache perform.
        # ``a == b`` iff ``a.canonical_key() == b.canonical_key()``,
        # which guarantees the eq/hash contract layouts need to serve
        # as dict keys (see tests/test_cache.py).
        return self._hash

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description of the layout.

        Stable across versions: basis images are stored per input dim
        as lists of per-out-dim coordinates.
        """
        return {
            "bases": {
                d: [list(img) for img in images]
                for d, images in self.bases.items()
            },
            "out_dims": dict(self._out_dims),
        }

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "LinearLayout":
        """Rebuild a layout saved by :meth:`to_dict`."""
        return LinearLayout(
            {
                d: [tuple(img) for img in images]
                for d, images in data["bases"].items()
            },
            dict(data["out_dims"]),
            require_surjective=False,
        )

    def __repr__(self) -> str:
        parts = []
        for d, images in self.bases.items():
            imgs = ", ".join(str(tuple(img)) for img in images)
            parts.append(f"{d}=[{imgs}]")
        outs = ", ".join(f"{d}:{s}" for d, s in self._out_dims.items())
        return f"LinearLayout({'; '.join(parts)} -> {outs})"

    def pretty(self) -> str:
        """A human-readable table of every input -> output mapping.

        Only usable for small layouts (<= 2^12 inputs).
        """
        if self.total_in_bits() > 12:
            return repr(self)
        lines = [repr(self)]
        in_names = list(self._in_dims)
        sizes = [self._in_dims[d] for d in in_names]

        def rec(idx: int, coords: Dict[str, int]) -> None:
            if idx == len(in_names):
                outs = self.apply(coords)
                lines.append(f"  {coords} -> {outs}")
                return
            for v in range(sizes[idx]):
                coords[in_names[idx]] = v
                rec(idx + 1, coords)

        rec(0, {})
        return "\n".join(lines)


def make_identity(
    pairs: Iterable[Tuple[int, str, str]]
) -> LinearLayout:
    """Product of ``identity1d`` factors, a convenience for tiles."""
    result = LinearLayout.empty()
    for size, in_dim, out_dim in pairs:
        result = result * LinearLayout.identity1d(size, in_dim, out_dim)
    return result
