"""Unit tests for both reservation structures (ST graph and CDT).

The two implementations must agree on every answer — the CDT is a
space optimisation, not a semantics change — so most tests run against
both via parametrisation.
"""

import pytest

from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import (
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.warehouse.grid import Grid


@pytest.fixture(params=["stgraph", "cdt", "sharded-stgraph",
                        "cell-tiled-stgraph"])
def table(request):
    # ``tile_bits=2`` puts the tiled graph's 4×4 tiles well inside the
    # 12×10 test grid, so these cases cross tile boundaries too;
    # ``tile_bits=0`` makes every cell its own tile.
    if request.param == "stgraph":
        return SpatiotemporalGraph(Grid(12, 10))
    if request.param == "sharded-stgraph":
        return ShardedSpatiotemporalGraph(tile_bits=2)
    if request.param == "cell-tiled-stgraph":
        return ShardedSpatiotemporalGraph(tile_bits=0)
    return ConflictDetectionTable()


def reserve(table, cells, t0=0):
    path = Path.from_cells(cells, start_time=t0)
    table.reserve_path(path)
    return path


class TestVertexReservations:
    def test_initially_free(self, table):
        assert table.is_free(0, (3, 3))
        assert table.is_free(99, (0, 0))

    def test_reserved_vertex_not_free(self, table):
        reserve(table, [(1, 1), (2, 1), (2, 2)], t0=5)
        assert not table.is_free(5, (1, 1))
        assert not table.is_free(6, (2, 1))
        assert not table.is_free(7, (2, 2))

    def test_same_cell_other_time_free(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=5)
        assert table.is_free(4, (1, 1))
        assert table.is_free(7, (1, 1))


class TestEdgeReservations:
    def test_swap_edge_blocked(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=0)
        assert not table.edge_free(0, (2, 1), (1, 1))

    def test_same_direction_edge_free(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=0)
        assert table.edge_free(0, (1, 1), (2, 1))

    def test_swap_other_time_free(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=0)
        assert table.edge_free(3, (2, 1), (1, 1))

    def test_wait_reserves_no_edge(self, table):
        reserve(table, [(1, 1), (1, 1), (2, 1)], t0=0)
        assert table.edge_free(0, (2, 1), (1, 1))
        assert not table.edge_free(1, (2, 1), (1, 1))


class TestMoveAllowed:
    def test_move_into_reserved_vertex_blocked(self, table):
        reserve(table, [(3, 3), (3, 4)], t0=0)
        assert not table.move_allowed(0, (2, 4), (3, 4))

    def test_swap_blocked(self, table):
        reserve(table, [(3, 3), (3, 4)], t0=0)
        assert not table.move_allowed(0, (3, 4), (3, 3))

    def test_wait_checks_vertex_only(self, table):
        reserve(table, [(3, 3), (3, 4)], t0=0)
        assert not table.move_allowed(0, (3, 4), (3, 4))
        assert table.move_allowed(5, (3, 4), (3, 4))


class TestPurge:
    def test_purged_times_report_free(self, table):
        reserve(table, [(1, 1), (2, 1), (2, 2)], t0=0)
        table.purge_before(2)
        assert table.is_free(0, (1, 1))
        assert table.is_free(1, (2, 1))
        assert not table.is_free(2, (2, 2))

    def test_purge_drops_edges(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=0)
        table.purge_before(5)
        assert table.edge_free(0, (2, 1), (1, 1))

    def test_purge_is_monotone(self, table):
        reserve(table, [(1, 1), (2, 1)], t0=10)
        table.purge_before(20)
        table.purge_before(5)  # lower floor must not resurrect anything
        assert table.is_free(10, (1, 1))

    def test_reserving_below_floor_is_fully_ignored(self, table):
        """Pre-floor steps leave no trace — vertices *and* edges.

        (The seed kept pre-floor edges while dropping their vertices, so a
        purged-time probe could report an occupied edge between two free
        vertices; the bucketed structures treat both uniformly.)
        """
        table.purge_before(17)
        reserve(table, [(1, 1), (2, 1), (2, 2)], t0=10)
        assert table.is_free(10, (1, 1))
        assert table.is_free(11, (2, 1))
        assert table.edge_free(10, (2, 1), (1, 1))
        assert table.move_allowed(10, (2, 1), (1, 1))

    def test_purge_reduces_memory(self, table):
        for t0 in range(0, 60, 3):
            reserve(table, [(1, 1), (2, 1), (3, 1)], t0=t0)
        before = table.memory_bytes()
        table.purge_before(50)
        assert table.memory_bytes() < before


class TestMemoryShape:
    def test_stgraph_materialises_dense_layers(self):
        grid = Grid(20, 20)
        graph = SpatiotemporalGraph(grid)
        reserve(graph, [(0, 0), (1, 0)], t0=50)
        # A literal time-expanded graph has every layer up to t=51.
        assert graph.live_counts()["layers"] >= 51

    def test_cdt_stores_only_occupied(self):
        cdt = ConflictDetectionTable()
        reserve(cdt, [(0, 0), (1, 0)], t0=50)
        assert cdt.live_counts()["reservations"] == 2
        assert len(set().union(
            *cdt.__getstate__()["_buckets"].values())) == 2  # cells

    def test_cdt_smaller_than_stgraph_at_scale(self):
        grid = Grid(60, 40)
        graph = SpatiotemporalGraph(grid)
        cdt = ConflictDetectionTable()
        cells = [(x, 5) for x in range(30)]
        for t0 in (0, 40, 80):
            reserve(graph, cells, t0=t0)
            reserve(cdt, cells, t0=t0)
        assert cdt.memory_bytes() < graph.memory_bytes()
