"""The :class:`LinearLayout` type — Definition 4.1 of the paper.

A linear layout is a linear map between labeled vector spaces over F2.
Following Triton upstream, the map is stored as *bases*: for every
input dimension (e.g. ``register``, ``lane``, ``warp``) we keep one
basis vector per input bit, and each basis vector records the image of
that bit in every output dimension.  Applying the layout XORs together
the images of the set input bits — the binary matrix-vector product of
Section 4.1.

Sizes of all dimensions are powers of two; the *log2* of each size is
the number of bits of the corresponding labeled subspace.
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
from repro.f2.matrix import F2Matrix
from repro.f2.solve import (
    InconsistentSystemError,
    inverse as f2_inverse,
    rank as f2_rank,
    solve_matrix,
)

Bases = Dict[str, List[Tuple[int, ...]]]


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
        and the flattening order (first dim is the *fastest* moving,
        i.e. holds the least significant bits when flattened).
    require_surjective:
        When True (the default) the constructor asserts the layout is
        surjective onto the full output space, which Definition 4.10
        requires of distributed layouts.
    """

    __slots__ = (
        "_bases",
        "_in_dims",
        "_out_dims",
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
        self._out_dims: Dict[str, int] = {}
        for name, size in out_dims.items():
            log2_int(size)  # validates power of two
            self._out_dims[name] = size
        n_out = len(self._out_dims)
        out_logs = [log2_int(s) for s in self._out_dims.values()]
        clean: Bases = {}
        for in_dim, vecs in bases.items():
            images: List[Tuple[int, ...]] = []
            for vec in vecs:
                tup = tuple(int(x) for x in vec)
                if len(tup) != n_out:
                    raise DimensionError(
                        f"basis image {tup} of {in_dim!r} has "
                        f"{len(tup)} coords, expected {n_out}"
                    )
                for coord, log in zip(tup, out_logs):
                    if not 0 <= coord < (1 << log):
                        raise DimensionError(
                            f"coordinate {coord} of {in_dim!r} exceeds "
                            f"output size 2**{log}"
                        )
                images.append(tup)
            clean[in_dim] = images
        self._bases = clean
        self._in_dims: Dict[str, int] = {
            d: 1 << len(v) for d, v in clean.items()
        }
        self._key = CanonicalKey(
            (
                tuple((d, tuple(v)) for d, v in clean.items()),
                tuple(self._out_dims.items()),
            )
        )
        self._hash = hash(self._key)
        self._memo: Dict[object, object] = {}
        self._surjective = self._compute_surjective()
        if require_surjective and not self._surjective:
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

    @staticmethod
    def from_matrix(
        matrix: F2Matrix,
        in_dims: Mapping[str, int],
        out_dims: Mapping[str, int],
        require_surjective: bool = True,
    ) -> "LinearLayout":
        """Build from an explicit F2 matrix.

        Column ``j`` of the matrix is the image of the ``j``-th input
        bit, where input bits are the concatenation of the in-dims in
        order (first dim in the low columns) and output bits the
        concatenation of out-dims (first dim in the low rows).
        """
        in_logs = {d: log2_int(s) for d, s in in_dims.items()}
        out_logs = [(d, log2_int(s)) for d, s in out_dims.items()]
        total_in = sum(in_logs.values())
        total_out = sum(log for _, log in out_logs)
        if matrix.shape != (total_out, total_in):
            raise DimensionError(
                f"matrix shape {matrix.shape} does not match dims "
                f"({total_out}, {total_in})"
            )
        bases: Bases = {}
        col = 0
        for in_dim, bits in in_logs.items():
            images = []
            for _ in range(bits):
                packed = matrix.column(col)
                col += 1
                coords = []
                shift = 0
                for _, log in out_logs:
                    coords.append((packed >> shift) & ((1 << log) - 1))
                    shift += log
                images.append(tuple(coords))
            bases[in_dim] = images
        return LinearLayout(bases, dict(out_dims), require_surjective)

    # ------------------------------------------------------------------
    # Interning and memoization
    # ------------------------------------------------------------------
    def canonical_key(self) -> CanonicalKey:
        """A hashable key identifying the layout structurally.

        Two layouts are ``==`` iff their canonical keys are equal: the
        key lists the basis images per input dim (in declaration
        order) and the output dims with their sizes (in order).  It is
        the interning key of :meth:`intern` and the cache key every
        memoized derivation hangs off.
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
        the instance; :func:`repro.cache.set_enabled` bypasses the
        memo (it never needs invalidation — only bypassing).
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
        return {d: list(v) for d, v in self._bases.items()}

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
        return sum(len(v) for v in self._bases.values())

    def total_out_bits(self) -> int:
        """Total output bits across all dims."""
        return sum(log2_int(s) for s in self._out_dims.values())

    def total_in_size(self) -> int:
        """Number of distinct inputs (2^total_in_bits)."""
        return 1 << self.total_in_bits()

    def total_out_size(self) -> int:
        """Number of logical elements (2^total_out_bits)."""
        return 1 << self.total_out_bits()

    def basis_image(self, in_dim: str, bit: int) -> Tuple[int, ...]:
        """The image of basis bit ``bit`` of ``in_dim``."""
        return self._bases[in_dim][bit]

    def basis_image_flat(
        self, in_dim: str, bit: int, order: Optional[Sequence[str]] = None
    ) -> int:
        """Same, flattened over the output dims.

        ``order`` lists out dims fastest-first; the default is the
        reverse of the declared out-dim order, i.e. row-major ("j is
        the fastest moving dimension", Section 4.1).
        """
        if order is not None:
            return self._flatten_out_coords(self._bases[in_dim][bit], order)
        return self._flat_images()[in_dim][bit]

    def basis_images_flat(
        self, in_dim: str, order: Optional[Sequence[str]] = None
    ) -> List[int]:
        """All basis images of an input dim, flattened row-major.

        These are the sets the paper calls ``L_Reg``, ``L_Thr``,
        ``L_Wrp`` in Section 5.4 — the columns of the layout matrix
        acting on each resource, viewed in the flattened logical
        tensor F2^d.
        """
        if in_dim not in self._bases:
            return []
        if order is None:
            return list(self._flat_images()[in_dim])
        return [
            self._flatten_out_coords(img, order)
            for img in self._bases[in_dim]
        ]

    def _flat_images(self) -> Dict[str, Tuple[int, ...]]:
        """Every in-dim's basis images flattened row-major, computed once."""
        return self._memoized(
            "flat_images",
            lambda: {
                dim: tuple(self._flatten_out_coords(img) for img in images)
                for dim, images in self._bases.items()
            },
        )

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Apply the map to per-dim input coordinates.

        Missing input dims default to 0.  Returns per-out-dim
        coordinates.
        """
        acc = [0] * len(self._out_dims)
        for in_dim, images in self._bases.items():
            value = inputs.get(in_dim, 0)
            if not 0 <= value < self._in_dims[in_dim]:
                raise DimensionError(
                    f"input {value} out of range for dim {in_dim!r} "
                    f"of size {self._in_dims[in_dim]}"
                )
            bit = 0
            while value:
                if value & 1:
                    img = images[bit]
                    for k in range(len(acc)):
                        acc[k] ^= img[k]
                value >>= 1
                bit += 1
        extraneous = set(inputs) - set(self._bases)
        if extraneous:
            raise DimensionError(f"unknown input dims: {sorted(extraneous)}")
        return dict(zip(self._out_dims, acc))

    def apply_flat(
        self,
        inputs: Mapping[str, int],
        order: Optional[Sequence[str]] = None,
    ) -> int:
        """Apply and flatten the output (row-major by default)."""
        return self._flatten_out_coords(
            tuple(self.apply(inputs).values()), order
        )

    def flat_table(self, in_order: Sequence[str]) -> np.ndarray:
        """:meth:`apply_flat` of every input at once, as int64.

        Entry ``i`` is the row-major flattened output of the input
        whose flattened index is ``i``, with ``in_order`` listing the
        input dims to enumerate, fastest-first.  As in :meth:`apply`,
        dims it leaves out are held at 0, and dims the layout lacks
        have size 1.

        The table is the :func:`~repro.f2.bitvec.span_table` of the
        flattened basis images: O(N) array work, no per-element Python.
        """
        flat = self._flat_images()
        return span_table(
            [img for dim in in_order for img in flat.get(dim, ())]
        )

    def _flat_order(self, order: Optional[Sequence[str]]) -> List[str]:
        """Out dims fastest-first; default row-major (last dim fastest)."""
        if order is None:
            return list(reversed(list(self._out_dims)))
        if sorted(order) != sorted(self._out_dims):
            raise DimensionError(f"bad flatten order {list(order)}")
        return list(order)

    def _flatten_out_coords(
        self,
        coords: Sequence[int],
        order: Optional[Sequence[str]] = None,
    ) -> int:
        by_name = dict(zip(self._out_dims, coords))
        out = 0
        shift = 0
        for name in self._flat_order(order):
            out |= by_name[name] << shift
            shift += log2_int(self._out_dims[name])
        return out

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
    # Matrix view
    # ------------------------------------------------------------------
    def to_matrix(
        self,
        in_dim_order: Optional[Sequence[str]] = None,
        out_dim_order: Optional[Sequence[str]] = None,
    ) -> F2Matrix:
        """The matrix of the map, columns = input bits, rows = output bits.

        Input bits are concatenated in ``in_dim_order`` (default: the
        layout's own order, first dim in the low columns); output bits
        likewise in ``out_dim_order``.
        """
        if in_dim_order is None and out_dim_order is None:
            # The default view is the one every F2 derivation uses;
            # F2Matrix is immutable, so sharing the instance is safe.
            return self._memoized(
                "to_matrix",
                lambda: self._build_matrix(
                    list(self._in_dims), list(self._out_dims)
                ),
            )
        ins = list(in_dim_order) if in_dim_order else list(self._in_dims)
        outs = list(out_dim_order) if out_dim_order else list(self._out_dims)
        if set(ins) != set(self._in_dims):
            raise DimensionError(f"in_dim_order {ins} != {self.in_dims}")
        if set(outs) != set(self._out_dims):
            raise DimensionError(f"out_dim_order {outs} != {self.out_dims}")
        return self._build_matrix(ins, outs)

    def _build_matrix(
        self, ins: Sequence[str], outs: Sequence[str]
    ) -> F2Matrix:
        out_shift = {}
        shift = 0
        for name in outs:
            out_shift[name] = shift
            shift += self.out_dim_size_log2(name)
        total_out = shift
        columns: List[int] = []
        for in_dim in ins:
            for img in self._bases[in_dim]:
                packed = 0
                for name, coord in zip(self._out_dims, img):
                    packed |= coord << out_shift[name]
                columns.append(packed)
        return F2Matrix(total_out, columns)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def _rank(self) -> int:
        """Rank of the layout matrix, memoized globally by key.

        Gaussian elimination is the construction-time hot spot (every
        layout computes surjectivity); the global key means repeated
        construction of *equal* layouts pays for it once.
        """
        return _cache.cached(
            _cache.derivations,
            ("rank", self._key),
            lambda: f2_rank(self.to_matrix()),
        )

    def _compute_surjective(self) -> bool:
        if self.total_out_bits() == 0:
            return True
        return self._rank() == self.total_out_bits()

    def is_surjective(self) -> bool:
        """True iff the image is the whole output space."""
        return self._surjective

    def is_injective(self) -> bool:
        """True iff no two inputs map to the same output."""
        return self._rank() == self.total_in_bits()

    def is_invertible(self) -> bool:
        """True iff the map is a bijection."""
        return (
            self._surjective
            and self.total_in_bits() == self.total_out_bits()
        )

    def is_trivially_injective_in(self, in_dim: str) -> bool:
        """True iff the bases of ``in_dim`` alone are independent."""
        vecs = self.basis_images_flat(in_dim)
        seen: Dict[int, int] = {}
        for v in vecs:
            while v:
                lead = v.bit_length() - 1
                if lead not in seen:
                    seen[lead] = v
                    break
                v ^= seen[lead]
            if v == 0:
                return False
        return True

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
        out_names = list(out_dims)

        def lift(layout: "LinearLayout", shift_mine: bool) -> Bases:
            shifts = {}
            for name in layout._out_dims:
                shifts[name] = (
                    self.out_dim_size_log2(name)
                    if shift_mine and name in self._out_dims
                    else 0
                )
            lifted: Bases = {}
            for in_dim, images in layout._bases.items():
                new_images = []
                for img in images:
                    coords = dict(zip(layout._out_dims, img))
                    new_images.append(
                        tuple(
                            coords.get(n, 0) << shifts.get(n, 0)
                            for n in out_names
                        )
                    )
                lifted[in_dim] = new_images
            return lifted

        a = lift(self, shift_mine=False)
        b = lift(other, shift_mine=True)
        bases: Bases = {}
        for in_dim in list(a) + [d for d in b if d not in a]:
            bases[in_dim] = a.get(in_dim, []) + b.get(in_dim, [])
        return LinearLayout(
            bases,
            out_dims,
            require_surjective=False,
        )

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
        bases: Bases = {}
        for in_dim, images in inner._bases.items():
            new_images = []
            for img in images:
                mids = dict(zip(inner._out_dims, img))
                outs = self.apply(mids)
                new_images.append(tuple(outs.values()))
            bases[in_dim] = new_images
        return LinearLayout(
            bases, dict(self._out_dims), require_surjective=False
        )

    def invert(self) -> "LinearLayout":
        """The two-sided inverse of a bijective layout.

        The result maps the old output dims to the old input dims.
        """
        if not self.is_invertible():
            raise NonInvertibleLayoutError(
                "layout is not invertible (need bijectivity)"
            )

        def compute() -> "LinearLayout":
            inv = f2_inverse(self.to_matrix())
            return LinearLayout.from_matrix(
                inv, dict(self._out_dims), dict(self._in_dims)
            )

        return self._memoized("invert", compute)

    def right_inverse(self) -> "LinearLayout":
        """A right inverse of a surjective layout (Definition 4.5).

        Free variables are zeroed, giving the minimal-Hamming-weight
        representative that promotes broadcasting (Section 5.4).
        """
        if not self._surjective:
            raise NonInvertibleLayoutError(
                "right inverse requires surjectivity"
            )

        def compute() -> "LinearLayout":
            matrix = self.to_matrix()
            try:
                rinv = solve_matrix(matrix, F2Matrix.identity(matrix.rows))
            except InconsistentSystemError as exc:  # pragma: no cover
                raise NonInvertibleLayoutError(str(exc)) from exc
            return LinearLayout.from_matrix(
                rinv,
                dict(self._out_dims),
                dict(self._in_dims),
                require_surjective=False,
            )

        return self._memoized("right_inverse", compute)

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
        if not other._surjective:
            raise NonInvertibleLayoutError(
                "destination layout must be surjective"
            )

        def compute() -> "LinearLayout":
            # Solve other @ X = self column-wise over F2.
            a = self.to_matrix()
            b = other.to_matrix()
            x = solve_matrix(b, a)
            return LinearLayout.from_matrix(
                x,
                dict(self._in_dims),
                dict(other._in_dims),
                require_surjective=False,
            )

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
        keep = [i for i, name in enumerate(self._out_dims) if name in out_dims]
        bases: Bases = {}
        for d in in_dims:
            bases[d] = [
                tuple(img[i] for i in keep) for img in self._bases[d]
            ]
        new_outs = {
            name: size
            for name, size in self._out_dims.items()
            if name in out_dims
        }
        return LinearLayout(bases, new_outs, require_surjective=False)

    def rename_in_dim(self, old: str, new: str) -> "LinearLayout":
        """Rename one input dim (pure relabeling)."""
        if old not in self._bases:
            raise DimensionError(f"no input dim {old!r}")
        bases = {
            (new if d == old else d): list(v) for d, v in self._bases.items()
        }
        return LinearLayout(
            bases, dict(self._out_dims), require_surjective=False
        )

    def rename_out_dim(self, old: str, new: str) -> "LinearLayout":
        """Rename one output dim (pure relabeling)."""
        if old not in self._out_dims:
            raise DimensionError(f"no output dim {old!r}")
        outs = {
            (new if d == old else d): s for d, s in self._out_dims.items()
        }
        return LinearLayout(self._bases, outs, require_surjective=False)

    def transpose_ins(self, order: Sequence[str]) -> "LinearLayout":
        """Reorder the input dims (a relabeling, not a new map)."""
        if sorted(order) != sorted(self._in_dims):
            raise DimensionError(f"bad in-dim order {order}")
        bases = {d: list(self._bases[d]) for d in order}
        return LinearLayout(
            bases, dict(self._out_dims), require_surjective=False
        )

    def transpose_outs(self, order: Sequence[str]) -> "LinearLayout":
        """Reorder the output dims.

        Changes which dim is fastest-moving when flattening; this is
        the layout-level realization of ``tt.trans`` (Section 4.4).
        """
        if sorted(order) != sorted(self._out_dims):
            raise DimensionError(f"bad out-dim order {order}")
        positions = {name: i for i, name in enumerate(self._out_dims)}
        perm = [positions[name] for name in order]
        bases: Bases = {
            d: [tuple(img[p] for p in perm) for img in images]
            for d, images in self._bases.items()
        }
        outs = {name: self._out_dims[name] for name in order}
        return LinearLayout(bases, outs, require_surjective=False)

    def resize_in_dim(self, dim: str, new_size: int) -> "LinearLayout":
        """Grow (with zero/broadcast bases) or shrink an input dim."""
        bits = log2_int(new_size)
        images = list(self._bases.get(dim, []))
        zero = tuple(0 for _ in self._out_dims)
        if bits >= len(images):
            images = images + [zero] * (bits - len(images))
        else:
            images = images[:bits]
        bases = {d: list(v) for d, v in self._bases.items()}
        bases[dim] = images
        return LinearLayout(
            bases, dict(self._out_dims), require_surjective=False
        )

    def concat_ins(self, other: "LinearLayout") -> "LinearLayout":
        """Concatenate input dims of two layouts with equal codomains."""
        if dict(self._out_dims) != dict(other._out_dims):
            raise DimensionError("concat_ins requires equal codomains")
        if set(self._in_dims) & set(other._in_dims):
            raise DimensionError("concat_ins requires disjoint input dims")
        bases = {d: list(v) for d, v in self._bases.items()}
        for d, v in other._bases.items():
            bases[d] = list(v)
        return LinearLayout(
            bases, dict(self._out_dims), require_surjective=False
        )

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
        masks: Dict[str, int] = {}
        seen: Dict[int, int] = {}

        def in_span(v: int) -> bool:
            while v:
                lead = v.bit_length() - 1
                if lead not in seen:
                    return False
                v ^= seen[lead]
            return True

        def insert(v: int) -> None:
            while v:
                lead = v.bit_length() - 1
                if lead not in seen:
                    seen[lead] = v
                    return
                v ^= seen[lead]

        for in_dim in self._bases:
            mask = 0
            for bit, flat in enumerate(self.basis_images_flat(in_dim)):
                if flat == 0 or in_span(flat):
                    mask |= 1 << bit
                else:
                    insert(flat)
            masks[in_dim] = mask
        return masks

    def zero_basis_masks(self) -> Dict[str, int]:
        """Per input dim, a bitmask of bits whose image is exactly zero."""
        return {
            d: sum(
                1 << i
                for i, img in enumerate(images)
                if all(c == 0 for c in img)
            )
            for d, images in self._bases.items()
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
        if not isinstance(other, LinearLayout):
            return False
        if dict(self._in_dims) != dict(other._in_dims):
            return False
        if dict(self._out_dims) != dict(other._out_dims):
            return False
        for d, images in self._bases.items():
            theirs = other._bases[d]
            names_mine = list(self._out_dims)
            for img_mine, img_theirs in zip(images, theirs):
                mine = dict(zip(names_mine, img_mine))
                them = dict(zip(other._out_dims, img_theirs))
                if mine != them:
                    return False
        return True

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
                for d, images in self._bases.items()
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
        for d, images in self._bases.items():
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
