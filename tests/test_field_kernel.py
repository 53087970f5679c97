"""Native tier-0 plane: field flood, fused descent+audit, field arena.

Three compiled surfaces, each of which must be a bit-identical drop-in
for its python body:

* ``bfs_fill`` — the heuristic-field flood over the prepared adjacency
  capsule must equal the python deque flood value for value on any grid,
  any source, any sentinel (and reject colliding sentinels the same way);
* ``tier0_leg`` — the fused greedy-descent + bulk-audit entry point must
  agree with the python ``packed()``/``audit_chain`` pair on every
  production reservation table, every verdict class (unreachable, clean,
  finisher head, audit reject), and on both field regimes (eager int32
  buffers and the paper-scale lazy Manhattan closed form);
* the shared :class:`FieldArena` — fields served from shared memory must
  equal locally flooded ones, attach across pickled handles, and degrade
  cleanly when the owning block is gone.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp

from repro.config import PAPER_SCALE_MIN_CELLS
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cdt import (ConflictDetectionTable,
                                   ShardedConflictDetectionTable)
from repro.pathfinding.free_flow import (FreeFlowPathCache,
                                         descent_kernel_name,
                                         set_descent_kernel)
from repro.pathfinding.heuristics import (FieldArena, HeuristicFieldCache,
                                          attach_field_arena)
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.warehouse.grid import (Grid, field_kernel_name, set_field_kernel)

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")


@pytest.fixture(autouse=True)
def _restore_kernel():
    # set_search_kernel rewires the field and descent kernels too, so
    # restoring the search selection restores everything a test switched.
    previous = search_kernel_name()
    yield
    set_search_kernel(previous)


def random_grid(rng: random.Random, max_side: int = 14) -> Grid:
    width = rng.randint(2, max_side)
    height = rng.randint(2, max_side)
    blocked = {(rng.randrange(width), rng.randrange(height))
               for __ in range(rng.randint(0, width * height // 3))}
    if len(blocked) == width * height:
        blocked.pop()
    return Grid(width, height, blocked=blocked)


def passable_cells(grid: Grid):
    return list(grid.cells())


# -- the field flood ---------------------------------------------------------


class TestFieldKernelSelection:
    def test_search_selection_drives_field_kernel(self):
        if COMPILED is not None:
            set_search_kernel("compiled")
            assert field_kernel_name() == "compiled"
        set_search_kernel("python")
        assert field_kernel_name() == "python"

    def test_search_selection_drives_descent_kernel(self):
        if COMPILED is not None:
            set_search_kernel("compiled")
            assert descent_kernel_name() == "compiled"
        set_search_kernel("python")
        assert descent_kernel_name() == "python"


@needs_compiled
class TestBfsFillEquivalence:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=hyp.integers(min_value=0, max_value=10**9),
           sentinel=hyp.sampled_from([-1, -7, 10**6]))
    def test_matches_python_flood(self, seed, sentinel):
        rng = random.Random(seed)
        grid = random_grid(rng)
        cells = passable_cells(grid)
        if not cells:
            return
        source = rng.choice(cells)
        effective = sentinel if sentinel != 10**6 else grid.n_cells + 1
        set_field_kernel(None)
        expected = Grid(grid.width, grid.height,
                        grid.blocked_cells).distance_flat(
                            source, unreached=effective)
        set_field_kernel(COMPILED)
        assert field_kernel_name() == "compiled"
        got = grid.distance_flat(source, unreached=effective)
        assert got == expected
        assert got.typecode == expected.typecode == "i"

    def test_bfs_distances_keeps_historical_shape(self):
        grid = Grid(9, 7, blocked=[(4, 3)])
        set_field_kernel(COMPILED)
        dist = grid.bfs_distances((0, 0))
        assert dist.shape == (9, 7)
        assert dist[0, 0] == 0
        assert dist[4, 3] == -1  # blocked stays at the -1 sentinel
        assert dist[1, 0] == 1
        # The historical ndarray is an owned, writable copy.
        dist[0, 0] = 99
        assert grid.bfs_distances((0, 0))[0, 0] == 0

    @pytest.mark.parametrize("kernel", ["python", "compiled"])
    def test_sentinel_collision_rejected(self, kernel):
        grid = Grid(5, 5)
        set_field_kernel(COMPILED if kernel == "compiled" else None)
        with pytest.raises(ValueError):
            grid.distance_flat((0, 0), unreached=3)

    def test_unreachable_cells_keep_sentinel(self):
        # A walled-off right half must carry the sentinel in both planes.
        grid_a = Grid(7, 3, blocked=[(3, y) for y in range(3)])
        grid_b = Grid(7, 3, blocked=[(3, y) for y in range(3)])
        set_field_kernel(COMPILED)
        compiled = grid_a.distance_flat((0, 0), unreached=-1)
        set_field_kernel(None)
        python = grid_b.distance_flat((0, 0), unreached=-1)
        assert compiled == python
        assert compiled[6 * 3 + 0] == -1


class TestGridConnectivity:
    """``connected`` answers from one cached component labelling."""

    def test_connected_components(self):
        grid = Grid(8, 3, blocked=[(4, y) for y in range(3)])
        assert grid.connected((0, 0), (3, 2))
        assert not grid.connected((0, 0), (7, 0))
        assert not grid.connected((0, 0), (4, 0))  # blocked endpoint
        assert not grid.connected((0, 0), (99, 0))  # out of bounds

    def test_matches_bfs_reachability(self):
        rng = random.Random(20)
        for __ in range(25):
            grid = random_grid(rng)
            cells = passable_cells(grid)
            if len(cells) < 2:
                continue
            source = rng.choice(cells)
            dist = grid.distance_flat(source, unreached=-1)
            for __ in range(8):
                other = rng.choice(cells)
                reachable = dist[other[0] * grid.height + other[1]] >= 0
                assert grid.connected(source, other) == reachable

    def test_labels_computed_once(self):
        grid = Grid(6, 6)
        grid.connected((0, 0), (5, 5))
        labels = grid._components
        grid.connected((1, 1), (2, 2))
        assert grid._components is labels


# -- the fused tier-0 leg ----------------------------------------------------


WIDTH, HEIGHT = 12, 10

TABLES = {
    "cdt": lambda grid: ConflictDetectionTable(),
    "sharded-cdt": lambda grid: ShardedConflictDetectionTable(tile_bits=2),
    "stgraph": lambda grid: SpatiotemporalGraph(grid),
    "sharded-stgraph": lambda grid: ShardedSpatiotemporalGraph(tile_bits=2),
}


def random_traffic(rng: random.Random, grid: Grid, table) -> None:
    cells = passable_cells(grid)
    for __ in range(rng.randint(0, 8)):
        x, y = rng.choice(cells)
        t0 = rng.randint(0, 8)
        steps = [(t0, x, y)]
        for dt in range(rng.randint(1, 6)):
            options = list(grid.neighbours((steps[-1][1], steps[-1][2])))
            if options and rng.random() < 0.85:
                x, y = rng.choice(options)
            else:
                x, y = steps[-1][1], steps[-1][2]
            steps.append((t0 + dt + 1, x, y))
        table.reserve_path(Path(tuple(steps)))


@needs_compiled
@pytest.mark.parametrize("name", sorted(TABLES))
class TestFusedLegEquivalence:
    """``tier0_leg`` == the python ``packed()`` + ``audit_chain`` pair."""

    def test_matches_python_pair(self, name):
        set_descent_kernel(COMPILED)
        verdicts = set()
        for seed in range(80):
            rng = random.Random(5_000 + seed)
            grid = random_grid(rng)
            cells = passable_cells(grid)
            if len(cells) < 2:
                continue
            table = TABLES[name](grid)
            random_traffic(rng, grid, table)
            cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
            source, goal = rng.sample(cells, 2)
            t = rng.randint(0, 5)
            fused = cache.kernel_leg(table, t, source, goal,
                                     lambda goal: (None, 0))
            assert fused is not None
            verdict, payload, j, finisher, trigger = fused
            verdicts.add(verdict)
            chain = cache.packed(source, goal)
            if chain is None:
                assert verdict == 0 and payload is None
                continue
            limit = len(chain.cells) - 1
            if table.audit_chain(t, chain, limit):
                assert verdict == 1
                assert tuple(payload) == Path.from_cells(chain.cells, t).steps
            else:
                assert verdict == 3
                assert tuple(payload) == chain.cells
        # The random tape must exercise clean and rejected descents.
        assert {1, 3} <= verdicts

    def test_finisher_head_verdict(self, name):
        """With a live finisher only the head prefix is audited."""
        set_descent_kernel(COMPILED)
        seen_heads = 0
        for seed in range(40):
            rng = random.Random(9_000 + seed)
            grid = random_grid(rng)
            cells = passable_cells(grid)
            if len(cells) < 2:
                continue
            table = TABLES[name](grid)
            random_traffic(rng, grid, table)
            cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
            source, goal = rng.sample(cells, 2)
            t = rng.randint(0, 3)
            trigger = rng.randint(1, 6)
            finisher = lambda cell, tick: None
            fused = cache.kernel_leg(table, t, source, goal,
                                     lambda goal: (finisher, trigger))
            verdict, payload, j, got_finisher, got_trigger = fused
            assert got_trigger == trigger
            chain = cache.packed(source, goal)
            if chain is None:
                assert verdict == 0
                continue
            k = len(chain.cells) - 1
            head = k - trigger if k > trigger else 0
            if verdict == 2:
                assert got_finisher is finisher
                assert j == head
                assert tuple(payload) == chain.cells
                assert table.audit_chain(t, chain, head)
                seen_heads += 1
            elif verdict == 3:
                assert not table.audit_chain(t, chain, head)
            else:
                assert verdict == 1  # k == 0: nothing for the finisher
        assert seen_heads > 0

    def test_declines_generic_probe_spec(self, name):
        set_descent_kernel(COMPILED)
        grid = Grid(WIDTH, HEIGHT)
        real = TABLES[name](grid)

        class GenericProbe:
            def kernel_probe_spec(self):
                spec = real.kernel_probe_spec()
                return (0,) + tuple(spec[1:])

        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        assert cache.kernel_leg(GenericProbe(), 0, (0, 0), (5, 5),
                                lambda goal: (None, 0)) is None


@needs_compiled
class TestFusedLegManhattanRegime:
    """Paper-scale lazy Manhattan fields take the closed-form descent."""

    def test_matches_python_pair(self):
        set_descent_kernel(COMPILED)
        side = int(PAPER_SCALE_MIN_CELLS ** 0.5) + 1
        grid = Grid(side, side)  # unobstructed => lazy Manhattan fields
        assert grid.n_cells >= PAPER_SCALE_MIN_CELLS
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        table = ShardedSpatiotemporalGraph(tile_bits=4)
        rng = random.Random(31)
        # Cross traffic near one corner so some descents get rejected.
        for lane in range(6):
            cells = [(8 + lane, y) for y in range(0, 14)]
            table.reserve_path(Path.from_cells(cells, rng.randint(0, 3)))
        verdicts = set()
        for __ in range(60):
            source = (rng.randrange(24), rng.randrange(24))
            goal = (rng.randrange(24), rng.randrange(24))
            if source == goal:
                continue
            t = rng.randint(0, 4)
            fused = cache.kernel_leg(table, t, source, goal,
                                     lambda goal: (None, 0))
            assert fused is not None
            verdict, payload, j, finisher, trigger = fused
            verdicts.add(verdict)
            chain = cache.packed(source, goal)
            if table.audit_chain(t, chain, len(chain.cells) - 1):
                assert verdict == 1
                assert tuple(payload) == Path.from_cells(chain.cells, t).steps
            else:
                assert verdict == 3
                assert tuple(payload) == chain.cells
        assert {1, 3} <= verdicts

    def test_kernel_declines_without_module(self):
        set_descent_kernel(None)
        grid = Grid(8, 8)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        assert cache.kernel_leg(SpatiotemporalGraph(grid), 0, (0, 0),
                                (7, 7), lambda goal: (None, 0)) is None


# -- the shared field arena --------------------------------------------------


class TestFieldArena:
    def test_fields_equal_local_floods(self):
        grid = Grid(11, 9, blocked=[(5, 4), (2, 2)])
        goals = [(0, 0), (10, 8), (5, 3), (2, 2)]  # one blocked goal
        arena = FieldArena.build(grid, goals)
        try:
            assert set(arena.goals()) == {(0, 0), (10, 8), (5, 3)}
            infinity = grid.n_cells + 1
            for goal in arena.goals():
                served = arena.field(goal)
                expected = grid.distance_flat(goal, unreached=infinity)
                assert list(served.flat) == list(expected)
                assert served.nbytes == 64  # views own no buffer
            assert arena.field((9, 9)) is None
            assert arena.nbytes() == 4 * grid.n_cells * 3
        finally:
            arena.close()

    def test_attach_roundtrip_and_cache_integration(self):
        grid = Grid(9, 7)
        goals = [(0, 0), (8, 6)]
        arena = FieldArena.build(grid, goals)
        try:
            handle = pickle.loads(pickle.dumps(arena.handle()))
            reader = attach_field_arena(handle)
            cache = HeuristicFieldCache(grid)
            cache.attach_arena(reader)
            for goal in goals:
                served = cache.field(goal)
                expected = HeuristicFieldCache(grid).field(goal)
                assert list(served.flat) == list(expected.flat)
                assert cache.field(goal) is served  # memoised view
            # peek answers memo/arena goals without flooding new ones.
            assert cache.peek((0, 0)) is not None
            assert cache.peek((4, 4)) is None
            # Goals outside the arena still flood locally.
            local = cache.field((4, 4))
            assert list(local.flat) == list(
                HeuristicFieldCache(grid).field((4, 4)).flat)
        finally:
            arena.close()

    def test_attach_after_unlink_raises(self):
        grid = Grid(5, 5)
        arena = FieldArena.build(grid, [(0, 0)])
        handle = arena.handle()
        arena.close()
        with pytest.raises(FileNotFoundError):
            attach_field_arena(handle)

    def test_close_is_idempotent(self):
        arena = FieldArena.build(Grid(4, 4), [(0, 0)])
        arena.field((0, 0))
        arena.close()
        arena.close()

    def test_soak_flatness_nbytes_consistency(self):
        # Satellite to the nbytes fix: the cache ledger must equal the
        # sum of the fields' own nbytes, eager and arena-backed alike.
        grid = Grid(9, 7, blocked=[(4, 3)])
        arena = FieldArena.build(grid, [(0, 0)])
        try:
            cache = HeuristicFieldCache(grid)
            cache.attach_arena(attach_field_arena(arena.handle()))
            cache.field((0, 0))   # arena view: 64 header bytes
            cache.field((8, 6))   # local flood: 64 + 4 B/cell
            total = sum(field.nbytes for field in cache._fields.values())
            assert cache.memory_bytes() == total
            assert total == 64 + (64 + 4 * grid.n_cells)
        finally:
            arena.close()
