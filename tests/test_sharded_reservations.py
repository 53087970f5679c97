"""Property suite: the tiled ST graph == the global ST graph.

The tiled variant (graph layers partitioned into fixed spatial tiles) is
a pure performance reshape behind the ``ReservationTable`` interface —
every probe, audit, reserve and purge must answer exactly what the
global structure answers.  These tests pin that equivalence on
randomized cross-tile traffic, including the nasty cases: swap conflicts
whose two cells straddle a tile edge, and purges interleaved with audits.
"""

import random

import pytest

from repro.pathfinding.paths import Path
from repro.pathfinding.reservation import CELL_KEY_SHIFT, PackedChain
from repro.pathfinding.spatiotemporal_graph import (
    ShardedSpatiotemporalGraph, SpatiotemporalGraph)
from repro.warehouse.grid import Grid

#: Grid spanning a 3×3 block of the tiled graph's default 32×32 tiles,
#: so random staircases routinely cross tile boundaries.
WIDTH, HEIGHT = 96, 96

#: (global factory, sharded factory) pairs under test.
PAIRS = {
    "stgraph": (lambda: SpatiotemporalGraph(Grid(WIDTH, HEIGHT)),
                lambda: ShardedSpatiotemporalGraph()),
    # One-cell tiles: every move of every staircase crosses a tile edge.
    "stgraph-cell-tiles": (lambda: SpatiotemporalGraph(Grid(WIDTH, HEIGHT)),
                           lambda: ShardedSpatiotemporalGraph(tile_bits=0)),
}


@pytest.fixture(params=sorted(PAIRS))
def pair(request):
    make_global, make_sharded = PAIRS[request.param]
    return make_global(), make_sharded()


def staircase(rng, start=None, goal=None):
    """Random monotone staircase between two random cells."""
    if start is None:
        start = (rng.randrange(WIDTH), rng.randrange(HEIGHT))
    if goal is None:
        goal = (rng.randrange(WIDTH), rng.randrange(HEIGHT))
    (x, y), (gx, gy) = start, goal
    cells = [(x, y)]
    while (x, y) != (gx, gy):
        if x != gx and (y == gy or rng.random() < 0.5):
            x += 1 if gx > x else -1
        else:
            y += 1 if gy > y else -1
        cells.append((x, y))
    return cells


def chain_of(cells):
    """A PackedChain over ``cells`` (every consecutive pair is a move)."""
    keys = [(x << CELL_KEY_SHIFT) | y for x, y in cells]
    return PackedChain(tuple(cells), keys)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_cross_tile_traffic(self, pair, seed):
        """Reserve/audit/probe/purge agree on random cross-tile paths."""
        table_global, table_sharded = pair
        rng = random.Random(1000 + seed)
        reserved = []
        for round_no in range(30):
            cells = staircase(rng)
            t0 = rng.randrange(0, 80)
            path = Path.from_cells(cells, start_time=t0)
            verdicts = (table_global.audit_path(path),
                        table_sharded.audit_path(path))
            assert verdicts[0] == verdicts[1], (
                f"audit diverged on round {round_no}")
            # The packed chain audit is the reference walk on a chain.
            probe = chain_of(cells)
            assert (verdicts[0]
                    == table_global.audit_chain(t0, probe, len(cells) - 1)
                    == table_sharded.audit_chain(t0, probe,
                                                 len(cells) - 1)), (
                f"audit_chain diverged on round {round_no}")
            if verdicts[0]:
                table_global.reserve_path(path)
                table_sharded.reserve_path(path)
                reserved.append(path)
            if round_no % 7 == 6:
                cut = rng.randrange(0, 40)
                table_global.purge_before(cut)
                table_sharded.purge_before(cut)
            # Spot probes around reserved traffic.
            for __ in range(20):
                t = rng.randrange(0, 140)
                cell = (rng.randrange(WIDTH), rng.randrange(HEIGHT))
                assert (table_global.is_free(t, cell)
                        == table_sharded.is_free(t, cell))
        assert reserved, "the randomized workload never reserved a path"

    @pytest.mark.parametrize("seed", range(3))
    def test_move_probes_agree(self, pair, seed):
        """edge_free / move_allowed agree along and against traffic."""
        table_global, table_sharded = pair
        rng = random.Random(2000 + seed)
        for __ in range(12):
            cells = staircase(rng)
            path = Path.from_cells(cells, start_time=rng.randrange(0, 30))
            table_global.reserve_path(path)
            table_sharded.reserve_path(path)
        for __ in range(300):
            t = rng.randrange(0, 120)
            x = rng.randrange(WIDTH - 1)
            y = rng.randrange(HEIGHT - 1)
            source = (x, y)
            target = (x + 1, y) if rng.random() < 0.5 else (x, y + 1)
            if rng.random() < 0.5:
                source, target = target, source
            assert (table_global.edge_free(t, source, target)
                    == table_sharded.edge_free(t, source, target))
            assert (table_global.move_allowed(t, source, target)
                    == table_sharded.move_allowed(t, source, target))


class TestTileEdgeSwaps:
    """Swap conflicts whose two cells sit in *different* tiles."""

    #: Cell pairs straddling a default (32×32) tile boundary: vertical
    #: edge between x=31|32, horizontal edge between y=31|32.
    STRADDLES = [((31, 10), (32, 10)), ((10, 31), (10, 32)),
                 ((63, 40), (64, 40)), ((40, 63), (40, 64))]

    @pytest.mark.parametrize("a,b", STRADDLES)
    def test_swap_across_tile_edge_blocked(self, pair, a, b):
        table_global, table_sharded = pair
        path = Path.from_cells([a, b], start_time=5)
        for table in pair:
            table.reserve_path(path)
        swap = Path.from_cells([b, a], start_time=5)
        assert table_global.audit_path(swap) is False
        assert table_sharded.audit_path(swap) is False
        # The same swap one tick later is clean on both.
        later = Path.from_cells([b, a], start_time=6)
        assert table_global.audit_path(later) == \
            table_sharded.audit_path(later)

    @pytest.mark.parametrize("a,b", STRADDLES)
    def test_vertex_across_tile_edge(self, pair, a, b):
        table_global, table_sharded = pair
        path = Path.from_cells([a, b], start_time=0)
        for table in pair:
            table.reserve_path(path)
        for t in (0, 1, 2):
            for cell in (a, b):
                assert (table_global.is_free(t, cell)
                        == table_sharded.is_free(t, cell))


class TestEndToEndSharding:
    """Tiling the ST graph on a sub-gate run must not change behaviour."""

    def test_run_identical_modulo_memory(self, monkeypatch):
        from repro.experiments.harness import run_planner
        from repro.planners import PLANNERS
        from repro.sim.serialize import deterministic_view, result_to_dict
        from repro.workloads.datasets import make_mini

        spec = make_mini(seed=11, n_items=40)
        tiled = []

        def make_tiled(planner):
            tiled.append(ShardedSpatiotemporalGraph())
            return tiled[-1]

        views = {}
        for sharded in (False, True):
            if sharded:
                monkeypatch.setattr(PLANNERS["NTP"], "_make_reservation",
                                    make_tiled)
            result = run_planner(spec, "NTP")
            view = deterministic_view(result_to_dict(result))
            # The structures differ in footprint by design; everything
            # else — makespan, missions, traces, tier counters — is
            # pinned identical.
            view["metrics"].pop("peak_memory_bytes", None)
            view["metrics"].pop("final_memory_bytes", None)
            for checkpoint in view["metrics"].get("checkpoints", []):
                checkpoint.pop("memory_bytes", None)
            views[sharded] = view
        assert len(tiled) == 1
        assert views[False] == views[True]
