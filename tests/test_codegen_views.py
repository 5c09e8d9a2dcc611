"""Tests for DistributedView and the slot/owner tables (bit routing
for distributed layouts)."""

import numpy as np
import pytest

from repro.core import LANE, LinearLayout, REGISTER, WARP
from repro.core.errors import LayoutError
from repro.codegen.views import DistributedView, owner_table, slot_table
from repro.layouts import BlockedLayout, NvidiaMmaLayout
from tests.layout_reference import apply_flat, flat_of, owner_of


def blocked_view():
    desc = BlockedLayout((1, 2), (4, 8), (2, 2), (1, 0))
    return DistributedView(desc.to_linear((16, 32)))


class TestRoundTrip:
    def test_flat_owner_inverse(self):
        """Without broadcasting, the owner table inverts the slot table."""
        layout = blocked_view().layout
        owners = owner_table(layout)
        view = blocked_view()
        for (w, l, r), p in np.ndenumerate(slot_table(layout)):
            assert owners[p].tolist() == [r, l, w]
            idx = {REGISTER: r, LANE: l, WARP: w}
            assert owner_of(view, int(p)) == idx

    def test_matches_layout_apply(self):
        view = blocked_view()
        layout = view.layout
        slots = slot_table(layout)
        for r in range(layout.in_dim_size(REGISTER)):
            for l in (0, 7, 31):
                flat = flat_of(view, {REGISTER: r, LANE: l})
                assert flat == apply_flat(layout, {REGISTER: r, LANE: l})
                assert flat == slots[0, l, r]

    def test_mma_view(self):
        layout = NvidiaMmaLayout((2, 2)).to_linear((32, 32))
        p = slot_table(layout)[2, 17, 3]
        assert owner_table(layout)[p].tolist() == [3, 17, 2]


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
        layout = self.layout_with_broadcast()
        flat = int(slot_table(layout)[1, 2, 3])
        assert owner_table(layout)[flat].tolist() == [1, 2, 1]
        owner = owner_of(DistributedView(layout), flat)
        assert owner[REGISTER] == 1  # free bit (bit 1) stays 0

    def test_replicas(self):
        """The hardware indices holding one element differ only in the
        free (zero-column) bits."""
        row = slot_table(self.layout_with_broadcast())[0, 0]
        assert np.flatnonzero(row == row[1]).tolist() == [1, 3]

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
        layout = blocked_view().layout
        assert len(owner_table(layout)) == 1 << layout.total_out_bits()
        with pytest.raises(LayoutError):
            owner_of(blocked_view(), 1 << 20)
