"""Closed-form layout construction against the product oracle.

``BlockedLayout.to_linear`` writes its columns in closed form
(Prop. 9.1) and the MMA-family descriptors fit their instruction tiles
to a shape on the columns directly (``repro.layouts.common.
tile_to_shape``).  Both must equal the product-of-identities
construction, fitted by layout-level shrink and grow steps, that
:mod:`tests.layout_construction_reference` keeps: on every descriptor
the fig9 suite builds, and on generated blocked descriptors (warp 32
and 64, 1-8 warps, shapes smaller and larger than the tile, CTA
splits) and MMA-family descriptors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import cache
from repro.core import LANE, LinearLayout, REGISTER
from repro.core.errors import DimensionError, LayoutError
from repro.layouts import (
    AmdMfmaLayout,
    BlockedLayout,
    CtaLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    WgmmaLayout,
    WgmmaOperandLayout,
    tile_to_shape,
)
from tests import layout_construction_reference as reference
from tests.test_pipeline import FIG9_SUITE, _compile_fig9

DESCRIPTORS = (
    AmdMfmaLayout,
    BlockedLayout,
    MmaOperandLayout,
    NvidiaMmaLayout,
    WgmmaLayout,
    WgmmaOperandLayout,
)


@pytest.fixture(scope="module")
def fig9_descriptors():
    """Every ``(descriptor, shape)`` a cold fig9 pass lays out."""
    seen = set()
    with pytest.MonkeyPatch.context() as mp:
        for cls in DESCRIPTORS:
            def recording(self, shape, _real=cls.to_linear):
                seen.add((self, tuple(shape)))
                return _real(self, shape)

            mp.setattr(cls, "to_linear", recording)
        cache.clear()  # anchors are memoized: start cold
        for model, case, platform, mode in FIG9_SUITE:
            _compile_fig9(model, case, platform, mode)
    return sorted(seen, key=repr)


def test_fig9_descriptors_match_product_construction(fig9_descriptors):
    kinds = {type(desc) for desc, _ in fig9_descriptors}
    assert kinds == set(DESCRIPTORS)
    for desc, shape in fig9_descriptors:
        got = desc.to_linear(shape)
        assert got == reference.descriptor_to_linear(desc, shape), (
            desc, shape
        )
        assert got.is_surjective()


def _split_bits(draw, total: int, rank: int):
    """``total`` bits spread over ``rank`` dims, as per-dim counts."""
    cuts = draw(
        st.lists(st.integers(0, total), min_size=rank - 1, max_size=rank - 1)
    )
    bounds = [0, *sorted(cuts), total]
    return [1 << (hi - lo) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def blocked_cases(draw):
    """A blocked descriptor and a shape smaller or larger than its tile."""
    rank = draw(st.integers(1, 3))
    warp_size = draw(st.sampled_from([32, 64]))
    num_warps = draw(st.sampled_from([1, 2, 4, 8]))
    spt = _split_bits(draw, draw(st.integers(0, 3)), rank)
    tpw = _split_bits(draw, warp_size.bit_length() - 1, rank)
    wpc = _split_bits(draw, num_warps.bit_length() - 1, rank)
    order = tuple(draw(st.permutations(range(rank))))
    tile = [r * t * w for r, t, w in zip(spt, tpw, wpc)]
    per_cta = [
        1 << max(0, t.bit_length() - 1 + draw(st.integers(-4, 3)))
        for t in tile
    ]
    cta = None
    if draw(st.booleans()):
        ctas = [1 << draw(st.integers(0, 2)) for _ in range(rank)]
        split = [1 << draw(st.integers(0, c.bit_length() - 1)) for c in ctas]
        cta = CtaLayout(
            tuple(ctas), tuple(split),
            tuple(draw(st.permutations(range(rank)))),
        )
        shape = [s * k for s, k in zip(per_cta, split)]
    else:
        shape = per_cta
    desc = BlockedLayout(tuple(spt), tuple(tpw), tuple(wpc), order, cta)
    return desc, tuple(shape)


@settings(max_examples=150, deadline=None)
@given(case=blocked_cases())
def test_blocked_closed_form_matches_product_construction(case):
    desc, shape = case
    got = desc.to_linear(shape)
    assert got == reference.blocked_to_linear(desc, shape)
    assert got.is_surjective()


@st.composite
def mma_family_cases(draw):
    """An MMA-family descriptor and a 2-D shape around its tile."""
    wm = 1 << draw(st.integers(0, 3))
    wn = 1 << draw(st.integers(0, 3 - (wm.bit_length() - 1)))
    kind = draw(st.sampled_from(DESCRIPTORS[:1] + DESCRIPTORS[2:]))
    kwidth = 1 << draw(st.integers(0, 2))
    if kind is NvidiaMmaLayout:
        desc = NvidiaMmaLayout((wm, wn))
    elif kind is MmaOperandLayout:
        desc = MmaOperandLayout(
            NvidiaMmaLayout((wm, wn)), draw(st.integers(0, 1)), kwidth
        )
    elif kind is AmdMfmaLayout:
        desc = AmdMfmaLayout((wm, wn))
    else:
        parent = WgmmaLayout(
            (4 * wm, wn), instr_n=1 << draw(st.integers(3, 8))
        )
        desc = parent if kind is WgmmaLayout else WgmmaOperandLayout(
            parent, kwidth
        )
    shape = tuple(1 << draw(st.integers(0, 9)) for _ in range(2))
    return desc, shape


@settings(max_examples=150, deadline=None)
@given(case=mma_family_cases())
def test_mma_family_fit_matches_product_construction(case):
    desc, shape = case
    assert desc.to_linear(shape) == reference.descriptor_to_linear(
        desc, shape
    )


def test_rejects_non_power_of_two_shapes():
    """Both constructions refuse a non-power-of-two shape alike."""
    for desc in (
        BlockedLayout((1, 1), (4, 8), (2, 2), (1, 0)),
        NvidiaMmaLayout((2, 2)),
    ):
        for build in (desc.to_linear, lambda shape, desc=desc: (
            reference.descriptor_to_linear(desc, shape)
        )):
            with pytest.raises(ValueError, match="power of two, got 24"):
                build((24, 64))
    with pytest.raises(DimensionError):
        NvidiaMmaLayout((2, 2)).to_linear((16, 16, 16))


def test_tile_fit_checks_a_tile_that_is_not_surjective():
    """A tile that misses an output bit is refused unless the fit clips
    that bit away, as by the product construction."""
    tile = LinearLayout(
        {REGISTER: [(1, 0), (2, 0)], LANE: [(0, 1)]},  # misses dim1 bit 1
        {"dim0": 4, "dim1": 4},
        require_surjective=False,
    )
    for fit in (
        lambda shape: tile_to_shape(tile, shape, (1, 0), {}),
        lambda shape: reference.tile_to_shape(tile, shape, (1, 0)),
    ):
        with pytest.raises(LayoutError, match="not surjective"):
            fit((8, 8))
    assert tile_to_shape(tile, (8, 2), (1, 0), {}) == (
        reference.tile_to_shape(tile, (8, 2), (1, 0))
    )
