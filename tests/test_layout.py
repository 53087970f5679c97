"""Unit tests for warehouse layout generation."""

import pytest

from repro.errors import LayoutError
from repro.warehouse.layout import (PICKING_AREA_HEIGHT, WarehouseLayout,
                                    build_layout)


class TestBuildLayout:
    def test_counts_match_request(self):
        layout = build_layout(20, 16, n_racks=24, n_pickers=4)
        assert layout.n_racks == 24
        assert layout.n_pickers == 4

    def test_validates_clean(self):
        build_layout(20, 16, n_racks=24, n_pickers=4).validate()

    def test_pickers_on_bottom_row(self):
        layout = build_layout(20, 16, n_racks=10, n_pickers=3)
        for (x, y) in layout.picker_locations:
            assert y == layout.grid.height - 1

    def test_racks_above_picking_area(self):
        layout = build_layout(20, 16, n_racks=24, n_pickers=4)
        storage_bottom = 16 - PICKING_AREA_HEIGHT - 1
        for (x, y) in layout.rack_homes:
            assert y <= storage_bottom

    def test_rack_homes_distinct(self):
        layout = build_layout(30, 20, n_racks=60, n_pickers=5)
        assert len(set(layout.rack_homes)) == 60

    def test_single_picker_centered(self):
        layout = build_layout(21, 12, n_racks=6, n_pickers=1)
        assert layout.picker_locations == ((10, 11),)

    def test_pickers_spread_to_edges(self):
        layout = build_layout(20, 12, n_racks=6, n_pickers=2)
        xs = sorted(x for x, _ in layout.picker_locations)
        assert xs == [0, 19]


class TestBuildLayoutErrors:
    def test_too_small_grid(self):
        with pytest.raises(LayoutError):
            build_layout(3, 4, n_racks=2, n_pickers=1)

    def test_too_many_racks(self):
        with pytest.raises(LayoutError):
            build_layout(12, 10, n_racks=500, n_pickers=2)

    def test_too_many_pickers(self):
        with pytest.raises(LayoutError):
            build_layout(10, 10, n_racks=4, n_pickers=11)

    def test_zero_pickers(self):
        with pytest.raises(LayoutError):
            build_layout(12, 10, n_racks=4, n_pickers=0)

    def test_bad_block_dimensions(self):
        with pytest.raises(LayoutError):
            build_layout(12, 10, n_racks=4, n_pickers=1, block_width=0)
        with pytest.raises(LayoutError):
            build_layout(12, 10, n_racks=4, n_pickers=1, aisle=0)


class TestValidation:
    def test_duplicate_rack_homes_rejected(self, small_layout):
        bad = WarehouseLayout(grid=small_layout.grid,
                              rack_homes=(small_layout.rack_homes[0],) * 2,
                              picker_locations=small_layout.picker_locations)
        with pytest.raises(LayoutError):
            bad.validate()

    def test_rack_on_picker_rejected(self, small_layout):
        bad = WarehouseLayout(grid=small_layout.grid,
                              rack_homes=(small_layout.picker_locations[0],),
                              picker_locations=small_layout.picker_locations)
        with pytest.raises(LayoutError):
            bad.validate()

    def test_empty_layout_rejected(self, small_layout):
        with pytest.raises(LayoutError):
            WarehouseLayout(grid=small_layout.grid, rack_homes=(),
                            picker_locations=small_layout.picker_locations
                            ).validate()
        with pytest.raises(LayoutError):
            WarehouseLayout(grid=small_layout.grid,
                            rack_homes=small_layout.rack_homes,
                            picker_locations=()).validate()

    def test_rack_aisles_exist_between_blocks(self):
        # With the default 4x2 blocks and 1-wide aisles, the cell to the
        # right of a block's last column must not be a rack home.
        layout = build_layout(24, 16, n_racks=16, n_pickers=2)
        homes = set(layout.rack_homes)
        xs = sorted({x for x, _ in homes})
        # Column 5 is the first aisle (blocks start at x=1, width 4).
        assert 5 not in xs


class TestObstructLayout:
    def _base(self):
        from repro.warehouse.layout import obstruct_layout
        return obstruct_layout, build_layout(24, 16, n_racks=16, n_pickers=3)

    def test_places_exact_pillar_count(self):
        obstruct_layout, layout = self._base()
        obstructed = obstruct_layout(layout, n_pillars=10, seed=3)
        assert len(obstructed.grid.blocked_cells) == 10
        obstructed.validate()

    def test_deterministic_per_seed(self):
        obstruct_layout, layout = self._base()
        a = obstruct_layout(layout, n_pillars=8, seed=3)
        b = obstruct_layout(layout, n_pillars=8, seed=3)
        c = obstruct_layout(layout, n_pillars=8, seed=4)
        assert a.grid.blocked_cells == b.grid.blocked_cells
        assert a.grid.blocked_cells != c.grid.blocked_cells

    def test_never_blocks_racks_or_pickers(self):
        obstruct_layout, layout = self._base()
        obstructed = obstruct_layout(layout, n_pillars=20, seed=1)
        blocked = obstructed.grid.blocked_cells
        assert not blocked & set(layout.rack_homes)
        assert not blocked & set(layout.picker_locations)

    def test_preserves_reachability(self):
        obstruct_layout, layout = self._base()
        obstructed = obstruct_layout(layout, n_pillars=25, seed=7)
        grid = obstructed.grid
        dist = grid.distance_flat(obstructed.picker_locations[0])
        for home in obstructed.rack_homes:
            assert dist[grid.cell_index(home)] >= 0

    def test_pillars_stay_out_of_the_picking_area(self):
        obstruct_layout, layout = self._base()
        obstructed = obstruct_layout(layout, n_pillars=15, seed=2)
        storage_bottom = 16 - PICKING_AREA_HEIGHT - 1
        assert all(y <= storage_bottom
                   for (_, y) in obstructed.grid.blocked_cells)

    def test_impossible_pillar_count_rejected(self):
        obstruct_layout, layout = self._base()
        with pytest.raises(LayoutError):
            obstruct_layout(layout, n_pillars=10_000, seed=0)

    def test_zero_pillars_rejected(self):
        obstruct_layout, layout = self._base()
        with pytest.raises(LayoutError):
            obstruct_layout(layout, n_pillars=0)
