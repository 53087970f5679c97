"""Native tier-0 plane: prepared grid, field flood, fused descent+audit.

The prepared-grid capsule every compiled entry point reads is built by
the kernel itself from the grid's blocked mask; it must reject malformed
input, leak nothing, and leave the grid's python adjacency rows unbuilt.
Then two compiled surfaces, each of which must be a bit-identical
drop-in for its python body:

* ``bfs_fill`` — the heuristic-field flood over the prepared adjacency
  capsule must equal the python deque flood value for value on any grid,
  any source, any sentinel (and reject colliding sentinels the same way);
* ``tier0_leg`` — the fused greedy-descent + bulk-audit entry point must
  agree with the python ``packed()``/``audit_chain``/``follow_with_waits``
  trio on every production reservation table, every verdict class
  (unreachable, clean, finisher walk, audit reject, rescued), and on both
  field regimes (eager int32 buffers and the paper-scale lazy Manhattan
  field) — and
  ``FreeFlowPathCache.kernel_leg``, the one tier-0 entry, must answer the
  same verdict tuple from either kernel, so the chain's single
  interpreter builds the same leg.

The per-planner field cache they read closes the module.
"""

from __future__ import annotations

import gc
import pickle
import random
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp

from repro.config import PAPER_SCALE_MIN_CELLS, PlannerConfig
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding._legacy import LegacyConflictDetectionTable
from repro.pathfinding.cache import ShortestPathCache, follow_with_waits
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.pipeline import RESCUE_CAPS, FallbackChain
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import (SearchRequest, SearchStats, search,
                                        search_kernel_name, set_search_kernel)
from repro.warehouse.grid import Grid
from tests.conftest import (SWAP_CASES, SWAP_GOAL, assert_retains_nothing,
                            count_kernel_calls, load_swap_case, python_audit)

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")


@pytest.fixture(autouse=True)
def _restore_kernel():
    # One switch serves every plane: restoring it restores everything a
    # test switched.
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


# -- the prepared grid --------------------------------------------------------


def walled_grid() -> Grid:
    """64x40 with a wall at x=32 pierced by two doorways."""
    return Grid(64, 40, blocked=[(32, y) for y in range(40)
                                 if y not in (7, 30)])


@needs_compiled
class TestPreparedGrid:
    @pytest.mark.parametrize("args", [
        (4, 3, bytes(11)), (4, 3, bytes(13)), (4, 3, b""),
        (0, 3, b""), (4, 0, b""), (-4, 3, bytes(12)), (4, -3, bytes(12)),
        (-4, -3, bytes(12)), (1 << 17, 1, bytes(1 << 17)),
    ])
    def test_rejects_bad_shapes(self, args):
        with pytest.raises(ValueError):
            COMPILED.prepare_grid(*args)

    @pytest.mark.parametrize("args", [
        (4, 3, "0" * 12), (4, 3, [0] * 12), (4, 3, None), (4, 3),
        ("4", 3, bytes(12)), (4, 3.5, bytes(12)),
    ])
    def test_rejects_bad_types(self, args):
        with pytest.raises(TypeError):
            COMPILED.prepare_grid(*args)

    def test_compiled_entry_points_build_no_python_row(self):
        set_search_kernel("compiled")
        grid = walled_grid()
        table = ConflictDetectionTable()
        table.reserve_path(Path.from_cells([(32, 7)] * 20, start_time=0))
        assert search(grid, table, SearchRequest((0, 7), (63, 7), 0)).ok
        assert grid.distance_flat((0, 0))[grid.cell_index((63, 39))] > 0
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        assert cache.kernel_leg(table, 0, (0, 30), (63, 30))[0] == 1
        assert not grid.adjacency

    def test_capsules_retain_nothing(self):
        grid = walled_grid()
        assert grid.kernel_capsule(COMPILED) is not None  # warm
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for __ in range(300):
                twin = Grid(grid.width, grid.height, grid.blocked_cells)
                twin.kernel_capsule(COMPILED)
            del twin
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before > 64 << 10  # a capsule is real memory
        assert after - before < 8 << 10

    def test_unpickled_grid_rebuilds_an_equal_capsule(self):
        set_search_kernel("compiled")
        grid = walled_grid()
        twin = pickle.loads(pickle.dumps(grid))
        assert twin == grid and twin is not grid
        assert twin.kernel_capsule(COMPILED) is not grid.kernel_capsule(
            COMPILED)
        for source in [(0, 0), (31, 39), (33, 7), (63, 20)]:
            assert twin.distance_flat(source) == grid.distance_flat(source)
        request = SearchRequest((0, 20), (63, 20), 0)
        ours, theirs = SearchStats(), SearchStats()
        assert (search(twin, ConflictDetectionTable(), request,
                       stats=theirs).path.steps
                == search(grid, ConflictDetectionTable(), request,
                          stats=ours).path.steps)
        assert theirs.expansions == ours.expansions


# -- the field flood ---------------------------------------------------------


#: The kernels a test can select here (the extension may be absent).
KERNELS = ("python",) if COMPILED is None else ("python", "compiled")


class TestFieldKernelSelection:
    def test_search_selection_drives_field_kernel(self):
        grid = Grid(9, 7, blocked=[(4, 3)])
        floods = {}
        for kernel in KERNELS:
            set_search_kernel(kernel)
            with count_kernel_calls(COMPILED, ["bfs_fill"]) as calls:
                floods[kernel] = grid.distance_flat((0, 0))
            assert calls["bfs_fill"] == (kernel == "compiled")
        assert floods.get("compiled", floods["python"]) == floods["python"]

    def test_search_selection_drives_descent_kernel(self):
        grid = Grid(8, 8)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        table = ConflictDetectionTable()
        legs = {}
        for kernel in KERNELS:
            set_search_kernel(kernel)
            with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
                legs[kernel] = cache.kernel_leg(table, 0, (0, 0), (7, 7))
            assert calls["tier0_leg"] == (kernel == "compiled")
        assert legs["python"][0] == 1  # a hit on the open floor
        assert legs.get("compiled", legs["python"]) == legs["python"]


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
        set_search_kernel("python")
        expected = Grid(grid.width, grid.height,
                        grid.blocked_cells).distance_flat(
                            source, unreached=effective)
        set_search_kernel("compiled")
        got = grid.distance_flat(source, unreached=effective)
        assert got == expected
        assert got.typecode == expected.typecode == "i"
        assert not grid.adjacency  # the native flood reads the capsule

    def test_bfs_distances_keeps_historical_shape(self):
        grid = Grid(9, 7, blocked=[(4, 3)])
        set_search_kernel("compiled")
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
        set_search_kernel(kernel)
        with pytest.raises(ValueError):
            grid.distance_flat((0, 0), unreached=3)

    def test_flood_retains_nothing(self):
        grid = walled_grid()
        capsule = grid.kernel_capsule(COMPILED)
        buffer = array("i", bytes(4 * grid.n_cells))
        source = grid.cell_index((5, 5))
        assert_retains_nothing(
            lambda: COMPILED.bfs_fill(capsule, source, buffer, -1),
            watched=(capsule, buffer), calls=2_000)
        assert buffer == grid.distance_flat((5, 5), unreached=-1)

    def test_unreachable_cells_keep_sentinel(self):
        # A walled-off right half must carry the sentinel in both planes.
        grid_a = Grid(7, 3, blocked=[(3, y) for y in range(3)])
        grid_b = Grid(7, 3, blocked=[(3, y) for y in range(3)])
        set_search_kernel("compiled")
        compiled = grid_a.distance_flat((0, 0), unreached=-1)
        set_search_kernel("python")
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
    "stgraph": lambda grid: SpatiotemporalGraph(grid),
    "sharded-stgraph": lambda grid: ShardedSpatiotemporalGraph(tile_bits=2),
    # One-cell tiles: every step of a chain lands in a new tile block.
    "cell-tiled-stgraph":
        lambda grid: ShardedSpatiotemporalGraph(tile_bits=0),
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
        set_search_kernel("compiled")
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
            fused = cache.kernel_leg(table, t, source, goal)
            assert fused is not None
            verdict, path, starts = fused
            assert starts == ()
            verdicts.add(verdict)
            chain = cache.packed(source, goal)
            if chain is None:
                assert verdict == 0 and path is None
                continue
            limit = len(chain.cells) - 1
            if python_audit(table, t, chain, limit):
                assert verdict == 1
                assert path == Path.from_cells(chain.cells, t)
                assert path.steps == Path.from_cells(chain.cells, t).steps
            else:
                assert verdict == 3
                assert path is None
        # The random tape must exercise clean and rejected descents.
        assert {1, 3} <= verdicts

    def test_finisher_head_verdict(self, name):
        """With a trigger only the head prefix is audited, and the
        finisher walks on from its last cell as ``follow_with_waits``
        does (caps 64 and 64)."""
        set_search_kernel("compiled")
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
            verdict, path, starts = cache.kernel_leg(table, t, source, goal,
                                                     trigger)
            chain = cache.packed(source, goal)
            if chain is None:
                assert verdict == 0
                continue
            k = len(chain.cells) - 1
            head = k - trigger if k > trigger else 0
            if verdict == 2:
                # the audited head, ending on the trigger cell, where
                # the walk starts
                assert starts == (chain.cells[head],)
                assert python_audit(table, t, chain, head)
                tail = follow_with_waits(table, chain.cells[head:],
                                         t + head)
                if tail is None:
                    assert path is None
                else:
                    assert path.steps == tuple(
                        (t + i,) + cell
                        for i, cell in enumerate(chain.cells[:head])
                    ) + tuple(tail)
                seen_heads += 1
            elif verdict == 3:
                assert not python_audit(table, t, chain, head)
            else:
                assert verdict == 1  # k == 0: nothing for the finisher
        assert seen_heads > 0


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
def test_kernel_leg_refuses_a_foreign_table(kernel):
    """A table that is not the library's gets a typed error under either
    switch; nothing falls back to the python trio and nothing reaches
    ``tier0_leg``."""
    set_search_kernel(kernel)
    grid = Grid(WIDTH, HEIGHT)
    cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
    foreign = LegacyConflictDetectionTable()
    foreign.reserve_path(Path.waiting((3, 0), 0, 9))
    with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
        for goal in ((5, 0), (0, 5)):
            with pytest.raises(TypeError, match="LegacyConflictDetection"):
                cache.kernel_leg(foreign, 0, (0, 0), goal)
    assert calls["tier0_leg"] == 0


@needs_compiled
@pytest.mark.parametrize("name", sorted(TABLES))
class TestOneTierZeroContract:
    """``kernel_leg`` answers one verdict tuple from either kernel."""

    def problem(self, name, seed):
        rng = random.Random(13_000 + seed)
        grid = random_grid(rng)
        cells = passable_cells(grid)
        if len(cells) < 2:
            return None
        table = TABLES[name](grid)
        random_traffic(rng, grid, table)
        source, goal = rng.sample(cells, 2)
        if rng.random() < 0.1:
            goal = source  # k == 0: served even with a finisher in force
        return rng, grid, table, source, goal, rng.randint(0, 5)

    def shortest_path_cache(self, rng):
        """No finisher, or EATP's cache with a drawn trigger."""
        if rng.random() < 0.4:
            return None
        return ShortestPathCache(rng.randint(1, 6))

    def both_kernels(self, name, call):
        """``call()`` under each switch; under the compiled one
        ``tier0_leg`` answers."""
        set_search_kernel("compiled")
        with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
            compiled = call()
        assert calls["tier0_leg"] <= 1
        set_search_kernel("python")
        return compiled, call()

    def test_verdict_tuples_equal(self, name):
        seen = set()
        for seed in range(120):
            problem = self.problem(name, seed)
            if problem is None:
                continue
            rng, grid, table, source, goal, t = problem
            cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
            trigger = rng.randint(1, 6) if seed % 2 else 0
            caps = (rng.randint(1, 4), rng.randint(1, 8)) if seed % 3 else (
                0, 0)
            compiled, python = self.both_kernels(
                name, lambda: cache.kernel_leg(table, t, source, goal,
                                               trigger, caps))
            assert compiled == python
            if compiled[1] is not None:  # equal paths, tuples included
                assert compiled[1].steps == python[1].steps
                assert hash(compiled[1]) == hash(python[1])
            seen.add((compiled[0], trigger > 0))
        # all five verdicts, with and without a finisher in force
        # (the head verdict only exists with one)
        assert seen >= {(0, False), (1, False), (3, False), (4, False),
                        (0, True), (1, True), (2, True), (3, True),
                        (4, True)}

    def test_chain_legs_equal(self, name):
        outcomes = set()
        for seed in range(120):
            problem = self.problem(name, seed)
            if problem is None:
                continue
            rng, grid, table, source, goal, t = problem
            heuristics = HeuristicFieldCache(grid)
            chain = FallbackChain(
                grid=grid, reservation=table, heuristics=heuristics,
                config=PlannerConfig(), full_search=None,
                free_flow=FreeFlowPathCache(grid, heuristics))
            if seed % 3:
                chain.rescue_caps = RESCUE_CAPS
            threshold = rng.randint(1, 6) if rng.random() < 0.6 else None

            def leg():
                # a fresh cache a call: what each kernel recorded
                chain.cache = (None if threshold is None
                               else ShortestPathCache(threshold))
                return (chain._free_flow_leg(t, source, goal),
                        None if chain.cache is None
                        else list(chain.cache._paths.items()))

            compiled, python = self.both_kernels(name, leg)
            assert compiled == python  # ((LegPlan | None, outcome), pairs)
            outcomes.add(compiled[0][1])
        assert outcomes == {"hit", "miss", "audit_reject", "rescue"}

    def test_mutations_and_tier0_retain_nothing(self, name):
        # Steady state of a service run: reserve a window of legs, audit
        # descents through them, purge the window — repeated, the heap
        # must come back to where one warm cycle left it.
        set_search_kernel("compiled")
        grid = Grid(24, 24)
        table = TABLES[name](grid)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        lanes = [[(x, y) for y in range(24)] for x in range(2, 22, 3)]

        def cycle(base):
            for offset, lane in enumerate(lanes):
                table.reserve_path(Path.from_cells(lane, base + offset))
                table.reserve_path(
                    Path.from_cells(lane[:-11:-1], base + offset))
            verdicts = {cache.kernel_leg(table, base + 2, (0, y), (23, y))[0]
                        for y in range(24)}
            table.purge_before(base + 40)
            return verdicts

        assert cycle(0) == {1, 3}  # warm: capsule, fields, buckets
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for round_no in range(1, 30):
                cycle(40 * round_no)
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.live_counts() == table.recount()
        assert peak - before > 16 << 10  # the cycles did allocate
        assert after - before < 8 << 10


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
@pytest.mark.parametrize("case_name", sorted(SWAP_CASES))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_gated_audits_on_the_swap_cases(name, case_name, kernel):
    """Tier 0 and the rescue ask about a swap only where the departure
    cell is taken at the arrival tick; ``audit_path`` asks at every move.
    On legs whose moves leave such cells all of them agree."""
    case = SWAP_CASES[case_name]
    grid = Grid(7, 3)
    table = load_swap_case(case, TABLES[name](grid))
    cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
    chain = cache.packed(case["source"], SWAP_GOAL)
    descent = Path.from_cells(chain.cells, case["start"])
    clean = table.audit_path(descent)
    assert python_audit(table, case["start"], chain, len(chain) - 1) == clean
    set_search_kernel(kernel)
    for caps, verdict in zip(((0, 0), (4, 8)), case["tier0"]):
        got, path, __ = cache.kernel_leg(
            table, case["start"], case["source"], SWAP_GOAL, 0, caps)
        assert got == verdict and (verdict == 1) == clean
        if verdict == 1:
            assert path == descent
        elif verdict == 4:
            assert path.steps == tuple(follow_with_waits(
                table, chain.cells, case["start"], *caps))
            assert path.duration == descent.duration + 1
            assert table.audit_path(path)
        else:
            assert path is None


def reference_walk(table, cells, t, per_step, total):
    """``follow_with_waits`` restated so that a decline says why."""
    steps = [(t,) + cells[0]]
    current, total_waited = cells[0], 0
    for nxt in cells[1:]:
        waited = 0
        while not table.move_allowed(t, current, nxt):
            if waited >= per_step:
                return "per-step cap", None
            if total_waited >= total:
                return "total cap", None
            if not table.is_free(t + 1, current):
                return "cannot hold", None
            t, waited, total_waited = t + 1, waited + 1, total_waited + 1
            steps.append((t,) + current)
        t += 1
        steps.append((t,) + nxt)
        current = nxt
    return "served", steps


#: The floors EATP's finisher walk is drawn on: open, and pillared.
FINISHER_FLOORS = {
    "open": Grid(WIDTH, HEIGHT),
    "pillars": Grid(WIDTH, HEIGHT, blocked=[(x, y) for x in (2, 5, 8)
                                            for y in (2, 5, 8)]),
}


def camp(table, cell, until):
    """Hold ``cell`` over ticks ``[0, until]``."""
    table.reserve_path(Path.waiting(cell, 0, until))


@needs_compiled
@pytest.mark.parametrize("name", sorted(TABLES))
class TestNativeRescue:
    """The rescue inside ``tier0_leg`` == ``follow_with_waits``."""

    def conflicted(self, name, seed):
        """A drawn descent whose audit hits traffic, or ``None``."""
        rng = random.Random(17_000 + seed)
        grid = random_grid(rng)
        cells = passable_cells(grid)
        if len(cells) < 2:
            return None
        table = TABLES[name](grid)
        for __ in range(3):
            random_traffic(rng, grid, table)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        source, goal = rng.sample(cells, 2)
        t = rng.randint(0, 5)
        chain = cache.packed(source, goal)
        if chain is None or python_audit(table, t, chain, len(chain) - 1):
            return None
        return table, cache, chain, source, goal, t

    def check(self, problem, caps):
        table, cache, chain, source, goal, t = problem
        expected = follow_with_waits(table, chain.cells, t, *caps)
        reason, steps = reference_walk(table, chain.cells, t, *caps)
        assert steps == expected
        set_search_kernel("compiled")
        with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
            verdict, path, __ = cache.kernel_leg(table, t, source, goal, 0,
                                                 caps)
        assert calls["tier0_leg"] == 1
        if expected is None:
            assert (verdict, path) == (3, None)
        else:
            assert verdict == 4
            assert path.steps == tuple(expected)
            assert path == Path(expected)
            assert table.audit_path(path)
        return reason

    def test_drawn_chains_every_outcome(self, name):
        reasons = set()
        for seed in range(400):
            problem = self.conflicted(name, seed)
            if problem is not None:
                rng = random.Random(seed)
                reasons.add(self.check(
                    problem, (rng.randint(1, 3), rng.randint(1, 4))))
        assert reasons == {"served", "per-step cap", "total cap",
                           "cannot hold"}

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=hyp.integers(0, 10**6), per_step=hyp.integers(1, 5),
           total=hyp.integers(1, 9))
    def test_drawn_chains_and_caps(self, name, seed, per_step, total):
        problem = self.conflicted(name, seed)
        if problem is not None:
            self.check(problem, (per_step, total))

    @pytest.mark.parametrize("floor", sorted(FINISHER_FLOORS))
    def test_finisher_walks_from_mid_descent(self, name, floor):
        """EATP's finisher walk: caps (64, 64), from a cell in the middle
        of a descent, through tier 0's entry under either switch."""
        grid = FINISHER_FLOORS[floor]
        cells = passable_cells(grid)
        reasons = set()
        for seed in range(60):
            rng = random.Random(23_000 + seed)
            table = TABLES[name](grid)
            for __ in range(3):
                random_traffic(rng, grid, table)
            cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
            source, goal = rng.sample(cells, 2)
            descent = cache.packed(source, goal).cells
            if len(descent) < 3:
                continue
            start = descent[rng.randrange(1, len(descent) - 1)]
            chain = cache.packed(start, goal)
            # one long camp on the walk puts the caps in play
            camp(table, rng.choice(chain.cells[1:]), rng.randint(0, 90))
            t = rng.randint(0, 5)
            expected = follow_with_waits(table, chain.cells, t, 64, 64)
            if not python_audit(table, t, chain, len(chain) - 1):
                reasons.add(self.check(
                    (table, cache, chain, start, goal, t), (64, 64)))
            for kernel in ("compiled", "python"):
                set_search_kernel(kernel)
                # a trigger at the start's own h: the head is the start
                with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
                    verdict, walked, starts = cache.kernel_leg(
                        table, t, start, goal, len(chain.cells) - 1)
                assert calls["tier0_leg"] == (kernel == "compiled")
                assert verdict == 2 and starts == (start,)
                if expected is None:
                    assert walked is None
                else:
                    assert walked.steps == tuple(expected)
        assert {"served", "per-step cap", "cannot hold"} <= reasons

    def boundary_problem(self, name, camps):
        grid = Grid(WIDTH, HEIGHT)
        table = TABLES[name](grid)
        for cell, until in camps:
            camp(table, cell, until)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        source, goal = (0, 5), (8, 5)
        return table, cache, cache.packed(source, goal), source, goal, 0

    def test_per_step_cap_boundary(self, name):
        # (3, 5) frees at tick 8; the robot stands before it from tick 2:
        # five waits at one step.
        problem = self.boundary_problem(name, [((3, 5), 7)])
        assert self.check(problem, (5, 5)) == "served"
        assert self.check(problem, (4, 5)) == "per-step cap"
        assert self.check(problem, (5, 4)) == "total cap"

    def test_total_cap_boundary(self, name):
        # two camps, 5 + 3 waits: inside every per-step cap, the sum
        # decides.
        problem = self.boundary_problem(
            name, [((3, 5), 7), ((6, 5), 13)])
        assert self.check(problem, (5, 8)) == "served"
        assert self.check(problem, (5, 7)) == "total cap"
        assert self.check(problem, (4, 8)) == "per-step cap"

    def test_cannot_hold_position(self, name):
        # traffic sweeps through the cell the robot would wait on
        problem = self.boundary_problem(name, [((3, 5), 7)])
        problem[0].reserve_path(
            Path.from_cells([(2, 3), (2, 4), (2, 5), (2, 6)], 1))
        assert self.check(problem, (16, 96)) == "cannot hold"

    @pytest.mark.parametrize("caps", [
        (-1, 4), (4, -1), (0, 4), (4, 0), (1 << 16, 4), (4, 1 << 40)])
    def test_bad_caps_raise(self, name, caps):
        problem = self.boundary_problem(name, [((3, 5), 7)])
        table, cache, __, source, goal, t = problem
        set_search_kernel("compiled")
        with pytest.raises(ValueError):
            cache.kernel_leg(table, t, source, goal, 0, caps)

    @pytest.mark.parametrize("verdict, goal, until, trigger, caps, leg", [
        (0, (11, 9), 7, 0, (0, 0), False),    # walled off
        (1, (8, 2), 7, 0, (0, 0), True),      # clean
        (2, (3, 5), 7, 2, (0, 0), True),      # the finisher walked on
        (2, (3, 5), 90, 2, (0, 0), False),    # its walk declined
        (3, (8, 5), 7, 0, (0, 0), False),     # reject, rescue off
        (3, (8, 5), 40, 0, (4, 4), False),    # reject, rescue declined
        (4, (8, 5), 7, 0, (16, 96), True),    # rescued
    ])
    def test_every_verdict_retains_nothing(self, name, verdict, goal, until,
                                           trigger, caps, leg):
        set_search_kernel("compiled")
        grid = Grid(WIDTH, HEIGHT, blocked=[(10, 9), (11, 8), (10, 8)])
        table = TABLES[name](grid)
        camp(table, (3, 5), until)
        capsule = grid.kernel_capsule(COMPILED)
        flat = HeuristicFieldCache(grid).field(goal).flat
        store = table.kernel_probe_spec()
        args = (capsule, store, 2, flat, grid.cell_index((0, goal[1])),
                grid.cell_index(goal), 0, trigger) + caps
        got, keys, tried = COMPILED.tier0_leg(*args)
        assert got == verdict and (keys is not None) == leg
        assert bool(tried) == (verdict == 2)
        assert_retains_nothing(lambda: COMPILED.tier0_leg(*args),
                               watched=(capsule, flat, store))


@needs_compiled
class TestFusedLegManhattanRegime:
    """Paper-scale lazy Manhattan fields take the native Manhattan
    descent."""

    def test_matches_python_pair(self):
        set_search_kernel("compiled")
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
            fused = cache.kernel_leg(table, t, source, goal)
            assert fused is not None
            verdict, path, __ = fused
            verdicts.add(verdict)
            chain = cache.packed(source, goal)
            if python_audit(table, t, chain, len(chain.cells) - 1):
                assert verdict == 1
                assert path == Path.from_cells(chain.cells, t)
            else:
                assert verdict == 3
                assert path is None
        assert {1, 3} <= verdicts

    def test_kernel_declines_without_module(self):
        """The python switch: the same entry answers through the python
        pair."""
        set_search_kernel("python")
        grid = Grid(8, 8)
        cache = FreeFlowPathCache(grid, HeuristicFieldCache(grid))
        with count_kernel_calls(COMPILED, ["tier0_leg"]) as calls:
            verdict, path, __ = cache.kernel_leg(
                SpatiotemporalGraph(grid), 0, (0, 0), (7, 7))
        assert calls["tier0_leg"] == 0
        assert verdict == 1
        assert path == Path.from_cells(cache.packed((0, 0), (7, 7)).cells, 0)


# -- the per-planner field cache ---------------------------------------------


class TestHeuristicFieldCache:
    def test_cap_resets_the_memo(self):
        grid = Grid(9, 7)
        cache = HeuristicFieldCache(grid)
        cache._FIELD_CAP = 2
        first = cache.field((0, 0))
        cache.field((1, 1))
        cache.field((2, 2))  # over the cap: the memo starts again
        assert len(cache) == 1 and (0, 0) not in cache._fields
        # a rebuilt field is value-identical (the flood is deterministic)
        assert cache.field((0, 0)).flat == first.flat

    def test_memory_bytes_sums_field_nbytes(self):
        grid = Grid(9, 7, blocked=[(4, 3)])
        cache = HeuristicFieldCache(grid)
        cache.field((0, 0))
        cache.field((8, 6))
        assert cache.memory_bytes() == 2 * (64 + 4 * grid.n_cells)
