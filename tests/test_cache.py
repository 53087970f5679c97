"""Unit tests for the shortest-path cache, the wait-following walk and
EATP's finisher, which walks the goal field's descent with waits (in
the native ``run`` and ``leg`` under the compiled switch) and
whose starts the caller records in the cache after each call."""

import hashlib
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cache import ShortestPathCache, follow_with_waits
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import is_conflict_free
from repro.pathfinding._legacy import seed_planner_patches, tier0_off_patch
from repro.pathfinding.paths import Path
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.planners import EfficientAdaptiveTaskPlanner
from repro.sim.engine import Simulation
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_syn_a, obstructed_floor
from tests.conftest import eatp_finisher

COMPILED = build_and_load()

KERNELS = ["python", pytest.param(
    "compiled", marks=pytest.mark.skipif(
        COMPILED is None, reason="native kernel unavailable"))]


@pytest.fixture(params=KERNELS)
def kernel(request):
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


@pytest.fixture
def grid():
    return Grid(12, 10)


class TestShortestPathCache:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ConfigurationError):
            ShortestPathCache(-1)

    def test_counts_new_and_repeat_pairs(self):
        cache = ShortestPathCache(threshold=10)
        cache.record((0, 0), (3, 2), 6)
        cache.record((0, 0), (3, 2), 6)
        cache.record((1, 0), (3, 2), 5)
        assert (cache.misses, cache.hits, len(cache)) == (2, 1, 2)

    def test_memory_charges_entries_and_cells(self):
        cache = ShortestPathCache(threshold=10)
        assert cache.memory_bytes() == 64
        cache.record((0, 0), (5, 5), 11)
        cache.record((0, 0), (5, 5), 11)  # a hit costs nothing
        cache.record((2, 0), (5, 5), 9)
        assert cache.live_counts() == {
            "entries": 2, "blob_bytes": 4 * 20,
            "memory_bytes": 64 + 150 * 2 + 4 * 20}

    def test_pickle_round_trip_keeps_pairs_and_counts(self):
        # A checkpoint carries the pairs, their lengths and the counters
        # as they are, and the restored cache goes on counting them.
        cache = ShortestPathCache(threshold=6)
        cache.record((0, 0), (3, 3), 7)
        cache.record((1, 0), (3, 3), 6)
        cache.record((1, 0), (3, 3), 6)
        again = pickle.loads(pickle.dumps(cache, protocol=4))
        assert vars(again) == vars(cache) == {
            "threshold": 6, "_paths": {((0, 0), (3, 3)): 7,
                                       ((1, 0), (3, 3)): 6},
            "_cells": 13, "hits": 1, "misses": 2}
        again.record((1, 0), (3, 3), 6)
        assert again.hits == 2
        assert again.memory_bytes() == 64 + 150 * 2 + 52

class TestFollowWithWaits:
    def test_no_conflicts_no_waits(self):
        cdt = ConflictDetectionTable()
        steps = follow_with_waits(cdt, ((0, 0), (1, 0), (2, 0)), 5)
        assert steps == [(5, 0, 0), (6, 1, 0), (7, 2, 0)]

    def test_waits_out_transient_conflict(self):
        cdt = ConflictDetectionTable()
        cdt.reserve_path(Path.from_cells([(1, 0), (1, 0)], start_time=0))
        steps = follow_with_waits(cdt, ((0, 0), (1, 0), (2, 0)), 0)
        path = Path(tuple(steps))
        assert path.goal == (2, 0)
        assert path.duration > 2  # at least one wait inserted
        blocked = Path.from_cells([(1, 0), (1, 0)], start_time=0)
        assert is_conflict_free([path, blocked])

    def test_gives_up_when_wait_budget_exhausted(self):
        cdt = ConflictDetectionTable()
        cdt.reserve_path(Path.waiting((1, 0), 0, 200))
        steps = follow_with_waits(cdt, ((0, 0), (1, 0)), 0,
                                  max_wait_per_step=4)
        assert steps is None

    def test_gives_up_when_holding_cell_reserved(self):
        cdt = ConflictDetectionTable()
        # Next cell blocked at t=1 and our holding cell reserved at t=1.
        cdt.reserve_path(Path.from_cells([(1, 0), (1, 0)], start_time=0))
        cdt.reserve_path(Path.from_cells([(0, 1), (0, 0)], start_time=0))
        steps = follow_with_waits(cdt, ((0, 0), (1, 0)), 0)
        assert steps is None


class TestFinisher:
    """EATP's finisher: a ``Path`` from ``(t, cell)`` onto the goal, or
    ``None``; the pair is recorded either way."""

    def test_path_starts_at_the_cell_and_ends_on_the_goal(self, grid,
                                                          kernel):
        finisher, cache = eatp_finisher(grid, ConflictDetectionTable(),
                                        (4, 0), 8)
        path = finisher((0, 0), 10)
        assert isinstance(path, Path)
        assert path.steps == Path.from_cells(
            [(x, 0) for x in range(5)], 10).steps
        assert cache.live_counts()["blob_bytes"] == 4 * 5
        assert finisher((0, 0), 30).steps[0] == (30, 0, 0)
        assert (cache.misses, cache.hits) == (1, 1)

    def test_waits_out_a_reserved_move(self, grid, kernel):
        table = ConflictDetectionTable()
        camp = Path.waiting((2, 0), 0, 6)
        table.reserve_path(camp)
        finisher, __ = eatp_finisher(grid, table, (4, 0), 8)
        path = finisher((0, 0), 0)
        assert path.source == (0, 0) and path.goal == (4, 0)
        assert path.duration == 4 + 5  # holds (1, 0) until (2, 0) frees
        assert is_conflict_free([path, camp])
        assert table.audit_path(path)

    def test_declines_past_the_per_step_cap(self, grid, kernel):
        # The robot reaches (1, 0) at tick 1 and waits there until (2, 0)
        # frees: 64 waits are served, 65 are not.
        for until, served in ((65, True), (66, False)):
            table = ConflictDetectionTable()
            table.reserve_path(Path.waiting((2, 0), 0, until))
            finisher, cache = eatp_finisher(grid, table, (4, 0), 8)
            path = finisher((0, 0), 0)
            assert (path is not None) == served
            assert cache.misses == 1  # a declined pair is recorded too
            if served:
                assert path.duration == 4 + 64

    def test_declines_past_the_total_cap(self, grid, kernel):
        # 40 waits before (2, 0), then 27 before (3, 0): each under 64,
        # together over.  Starting later, 11 + 27 waits are served.
        table = ConflictDetectionTable()
        table.reserve_path(Path.waiting((2, 0), 0, 41))
        table.reserve_path(Path.waiting((3, 0), 0, 69))
        finisher, __ = eatp_finisher(grid, table, (4, 0), 8)
        assert finisher((0, 0), 0) is None
        assert finisher((1, 0), 30).duration == 3 + 11 + 27

    def test_declines_where_the_held_cell_is_taken(self, grid, kernel):
        table = ConflictDetectionTable()
        table.reserve_path(Path.waiting((2, 0), 0, 5))
        # traffic sweeps through the cell the robot would wait on
        table.reserve_path(Path.from_cells([(1, 2), (1, 1), (1, 0)], 0))
        finisher, cache = eatp_finisher(grid, table, (4, 0), 8)
        assert finisher((1, 0), 0) is None
        assert cache.misses == 1


def drain(spec):
    state, items = spec.build()
    planner = EfficientAdaptiveTaskPlanner(state)
    Simulation(state, planner, items).run()
    return planner


class TestRecordedAccounting:
    """The cache's numbers on two EATP drains, frozen from the build whose
    finisher filled packed spatial A* paths — the descent must account
    for exactly what that cache held, under either kernel."""

    @pytest.mark.parametrize("spec, live, hits, peak", [
        (make_syn_a(0.5), {"entries": 134, "blob_bytes": 3876,
                           "memory_bytes": 24040}, 201, 92788),
        (obstructed_floor(0.5)[0], {"entries": 135, "blob_bytes": 3928,
                                    "memory_bytes": 24242}, 200, 92990),
    ], ids=["Syn-A", "Pillars-8"])
    def test_drain(self, kernel, spec, live, hits, peak):
        planner = drain(spec)
        assert planner.cache.live_counts() == live
        assert planner.cache.hits == hits
        assert planner.cache.misses == live["entries"]
        assert planner.peak_memory_bytes == peak
        assert planner.stats.cache_finished_legs == 333


def drain_pairs(spec, patches=()):
    """An EATP drain of ``spec`` under ``patches``: its cache's pairs in
    the order they were first asked for, and its hits."""
    with pytest.MonkeyPatch.context() as patch:
        for target, name, replacement in patches:
            patch.setattr(target, name, replacement)
        planner = drain(spec)
    return list(planner.cache._paths.items()), planner.cache.hits


class TestPairOrder:
    """The order in which pairs enter the cache, not just its totals: the
    walks' starts are recorded after each search or tier-0 call, and
    must land exactly where the finisher used to record them mid-search
    (a dropped or reordered record shows here)."""

    @pytest.mark.skipif(COMPILED is None, reason="native kernel unavailable")
    def test_compiled_switch_equals_python_switch(self):
        drains = {}
        for name in ("compiled", "python"):
            previous = search_kernel_name()
            set_search_kernel(name)
            try:
                drains[name] = drain_pairs(make_syn_a(0.5))
            finally:
                set_search_kernel(previous)
        pairs, hits = drains["python"]
        assert (len(pairs), hits) == (134, 201)
        # the order the in-search finisher callback recorded them in
        assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == (
            "3913fb76cd592b3c")
        assert drains["compiled"] == drains["python"]

    def test_library_equals_the_seed_with_tier0_off(self, kernel):
        library = drain_pairs(make_syn_a(0.5), [tier0_off_patch()])
        seed = drain_pairs(make_syn_a(0.5), seed_planner_patches())
        assert (len(library[0]), library[1]) == (134, 200)
        assert library == seed
