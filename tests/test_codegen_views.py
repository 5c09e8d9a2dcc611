"""Tests for DistributedView (bit routing for distributed layouts)."""

import pytest

from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.codegen.views import DistributedView
from repro.layouts import BlockedLayout, NvidiaMmaLayout


def blocked_view():
    desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
    return DistributedView(desc.to_linear((16, 32)))


class TestRoundTrip:
    def test_flat_owner_inverse(self):
        view = blocked_view()
        layout = view.layout
        for w in range(layout.in_dim_size(WARP)):
            for l in range(layout.in_dim_size(LANE)):
                for r in range(layout.in_dim_size(REGISTER)):
                    idx = {REGISTER: r, LANE: l, WARP: w}
                    assert view.owner_of(view.flat_of(idx)) == idx

    def test_matches_layout_apply(self):
        view = blocked_view()
        layout = view.layout
        for r in range(layout.in_dim_size(REGISTER)):
            for l in (0, 7, 31):
                flat = view.flat_of({REGISTER: r, LANE: l})
                assert flat == layout.apply_flat({REGISTER: r, LANE: l})

    def test_mma_view(self):
        view = DistributedView(NvidiaMmaLayout((2, 2)).to_linear((32, 32)))
        idx = {REGISTER: 3, LANE: 17, WARP: 2}
        assert view.owner_of(view.flat_of(idx)) == idx


class TestBroadcastHandling:
    def layout_with_broadcast(self):
        return LinearLayout(
            {REGISTER: [(1,), (0,)], LANE: [(2,), (4,)], WARP: [(8,)]},
            {"dim0": 16},
        )

    def test_has_broadcasting(self):
        view = DistributedView(self.layout_with_broadcast())
        assert view.has_broadcasting(REGISTER)
        assert not view.has_broadcasting(LANE)
        assert view.has_broadcasting()

    def test_canonical_owner_zeroes_free_bits(self):
        view = DistributedView(self.layout_with_broadcast())
        flat = view.flat_of({REGISTER: 1, LANE: 2, WARP: 1})
        owner = view.owner_of(flat)
        assert owner[REGISTER] == 1  # free bit (bit 1) stays 0

    def test_replicas(self):
        """The hardware indices holding one element differ only in the
        free (zero-column) bits."""
        view = DistributedView(self.layout_with_broadcast())
        flat = view.flat_of({REGISTER: 1, LANE: 0, WARP: 0})
        regs = [
            r for r in range(view.layout.in_dim_size(REGISTER))
            if view.flat_of({REGISTER: r, LANE: 0, WARP: 0}) == flat
        ]
        assert regs == [1, 3]

    def test_images_filter(self):
        view = DistributedView(self.layout_with_broadcast())
        assert view.images(REGISTER) == [1, 0]
        assert view.images(REGISTER, include_zeros=False) == [1]


class TestValidation:
    def test_rejects_non_distributed(self):
        layout = LinearLayout(
            {REGISTER: [(3,), (2,)]}, {"dim0": 4},
            require_surjective=False,
        )
        with pytest.raises(LayoutError):
            DistributedView(layout)

    def test_rejects_position_outside_image(self):
        view = blocked_view()
        with pytest.raises(LayoutError):
            view.owner_of(1 << 20)
