"""Property-based tests (hypothesis) on the core data structures.

These pin down the algebraic invariants the pathfinding stack rests on:
descent optimality against BFS ground truth, reservation-structure equivalence,
conflict-detector correctness against a naive oracle, and Q-table algebra.
"""

from hypothesis import given, settings, strategies as st

from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import find_conflicts, is_conflict_free
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import find_path
from repro.rl.mdp import (ACTION_REQUEST, ACTION_WAIT, RackObservation,
                          bucketize, request_cost, reward, transition,
                          wait_cost)
from repro.rl.qtable import QTable
from repro.types import manhattan
from repro.warehouse.grid import Grid

GRID_W, GRID_H = 12, 9

cells = st.tuples(st.integers(0, GRID_W - 1), st.integers(0, GRID_H - 1))


def random_walk(grid, start, moves):
    """Turn a move-index sequence into a lawful timed path."""
    cells_out = [start]
    for move in moves:
        x, y = cells_out[-1]
        options = [(x, y)] + list(grid.neighbours((x, y)))
        cells_out.append(options[move % len(options)])
    return cells_out


walks = st.tuples(cells, st.lists(st.integers(0, 4), min_size=1, max_size=12),
                  st.integers(0, 20))


def descent(grid, source, goal):
    """The goal field's greedy descent — the path EATP's finisher walks."""
    return FreeFlowPathCache(grid, HeuristicFieldCache(grid)).packed(
        source, goal)


class TestDescentProperties:
    @given(source=cells, goal=cells)
    @settings(max_examples=60, deadline=None)
    def test_descent_matches_manhattan_on_open_grid(self, source, goal):
        grid = Grid(GRID_W, GRID_H)
        path = descent(grid, source, goal).cells
        assert len(path) - 1 == manhattan(source, goal)
        assert path[0] == source and path[-1] == goal
        assert all(manhattan(a, b) == 1 for a, b in zip(path, path[1:]))

    @given(source=cells, goal=cells)
    @settings(max_examples=40, deadline=None)
    def test_descent_matches_bfs_with_obstacles(self, source, goal):
        # The wall leaves a gap only at the top rows; pillars in the gap
        # column cut the floor in two for some draws.
        wall = [(5, y) for y in range(GRID_H - 2)]
        if source[1] % 2:
            wall += [(5, GRID_H - 2), (5, GRID_H - 1)]
        grid = Grid(GRID_W, GRID_H, blocked=wall)
        if not grid.passable(source) or not grid.passable(goal):
            return
        chain = descent(grid, source, goal)
        bfs = grid.bfs_distances(source)
        if bfs[goal] < 0:
            assert chain is None
            return
        path = chain.cells
        assert path[0] == source and path[-1] == goal
        assert len(path) - 1 == bfs[goal]
        assert all(manhattan(a, b) == 1 and grid.passable(b)
                   for a, b in zip(path, path[1:]))


class TestPathProperties:
    @given(walk=walks)
    @settings(max_examples=60, deadline=None)
    def test_random_walk_is_lawful_path(self, walk):
        start, moves, t0 = walk
        grid = Grid(GRID_W, GRID_H)
        path = Path.from_cells(random_walk(grid, start, moves), t0)
        assert path.start_time == t0
        assert path.duration == len(moves)
        assert path.cell_at(t0) == path.source
        assert path.cell_at(path.end_time + 99) == path.goal

    @given(walk=walks, probe=st.integers(-5, 40))
    @settings(max_examples=60, deadline=None)
    def test_cell_at_always_on_path(self, walk, probe):
        start, moves, t0 = walk
        grid = Grid(GRID_W, GRID_H)
        path = Path.from_cells(random_walk(grid, start, moves), t0)
        assert path.cell_at(t0 + probe) in path.spatial_cells()


class TestReservationEquivalence:
    @given(walks_list=st.lists(walks, min_size=1, max_size=4),
           probe_t=st.integers(0, 35), probe_cell=cells)
    @settings(max_examples=60, deadline=None)
    def test_stgraph_and_cdt_agree(self, walks_list, probe_t, probe_cell):
        grid = Grid(GRID_W, GRID_H)
        graph = SpatiotemporalGraph(grid)
        cdt = ConflictDetectionTable()
        for start, moves, t0 in walks_list:
            path = Path.from_cells(random_walk(grid, start, moves), t0)
            graph.reserve_path(path)
            cdt.reserve_path(path)
        assert graph.is_free(probe_t, probe_cell) == cdt.is_free(
            probe_t, probe_cell)
        for target in Grid(GRID_W, GRID_H).neighbours(probe_cell):
            assert (graph.edge_free(probe_t, probe_cell, target)
                    == cdt.edge_free(probe_t, probe_cell, target))

    @given(walks_list=st.lists(walks, min_size=1, max_size=4),
           floor=st.integers(0, 30), probe_t=st.integers(0, 35),
           probe_cell=cells)
    @settings(max_examples=60, deadline=None)
    def test_agreement_survives_purge(self, walks_list, floor, probe_t,
                                      probe_cell):
        grid = Grid(GRID_W, GRID_H)
        graph = SpatiotemporalGraph(grid)
        cdt = ConflictDetectionTable()
        for start, moves, t0 in walks_list:
            path = Path.from_cells(random_walk(grid, start, moves), t0)
            graph.reserve_path(path)
            cdt.reserve_path(path)
        graph.purge_before(floor)
        cdt.purge_before(floor)
        assert graph.is_free(probe_t, probe_cell) == cdt.is_free(
            probe_t, probe_cell)


class TestConflictOracle:
    @staticmethod
    def naive_conflicts(paths):
        """Quadratic oracle implementing Def. 5 literally."""
        found = False
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                a = {(t, (x, y)) for (t, x, y) in paths[i]}
                for (t, x, y) in paths[j]:
                    if (t, (x, y)) in a:
                        found = True
                edges_a = set()
                steps = list(paths[i])
                for (t0, x0, y0), (__, x1, y1) in zip(steps, steps[1:]):
                    edges_a.add((t0, (x0, y0), (x1, y1)))
                steps_b = list(paths[j])
                for (t0, x0, y0), (__, x1, y1) in zip(steps_b, steps_b[1:]):
                    if (t0, (x1, y1), (x0, y0)) in edges_a and (x0, y0) != (x1, y1):
                        found = True
        return found

    @given(walks_list=st.lists(walks, min_size=2, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_detector_matches_oracle(self, walks_list):
        grid = Grid(GRID_W, GRID_H)
        paths = [Path.from_cells(random_walk(grid, s, m), t0)
                 for s, m, t0 in walks_list]
        assert (not is_conflict_free(paths)) == self.naive_conflicts(paths)


class TestStAstarProperties:
    @given(walks_list=st.lists(walks, min_size=0, max_size=3),
           source=cells, goal=cells, t0=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_found_path_conflict_free_with_reservations(
            self, walks_list, source, goal, t0):
        grid = Grid(GRID_W, GRID_H)
        cdt = ConflictDetectionTable()
        reserved = []
        for s, m, rt0 in walks_list:
            path = Path.from_cells(random_walk(grid, s, m), rt0)
            cdt.reserve_path(path)
            reserved.append(path)
        try:
            ours = find_path(grid, cdt, source, goal, start_time=t0,
                             max_expansions=20_000)
        except Exception:
            return  # saturated start cell can be legitimately unsolvable
        # Our path may only clash with a reserved path at its own start
        # vertex (the robot's physical position is never vacated).
        clashes = find_conflicts(reserved + [ours])
        ours_index = len(reserved)
        for clash in clashes:
            if ours_index in (clash.first, clash.second):
                assert (clash.time, clash.cell) == (t0, source)

    @given(source=cells, goal=cells, t0=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_optimal_when_unconstrained(self, source, goal, t0):
        grid = Grid(GRID_W, GRID_H)
        ours = find_path(grid, ConflictDetectionTable(), source, goal,
                         start_time=t0)
        assert ours.duration == manhattan(source, goal)


class TestMdpProperties:
    observations = st.builds(
        RackObservation,
        picker_accumulated=st.integers(0, 10_000),
        rack_accumulated=st.integers(0, 10_000),
        picker_finish_time=st.integers(0, 2_000),
        distance_to_picker=st.integers(1, 200),
        batch_processing_time=st.integers(1, 2_000),
        n_pending=st.integers(1, 100))

    @given(observation=observations, width=st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_bucketize_monotone_and_consistent(self, observation, width):
        state = bucketize(observation, width)
        assert state[0] == observation.picker_accumulated // width
        assert state[1] == observation.rack_accumulated // width

    @given(observation=observations)
    @settings(max_examples=80, deadline=None)
    def test_costs_always_negative(self, observation):
        assert reward(observation) < 0
        assert request_cost(observation) <= 0
        assert wait_cost(observation) < 0

    @given(observation=observations, width=st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_wait_transition_is_identity(self, observation, width):
        state = bucketize(observation, width)
        assert transition(state, ACTION_WAIT,
                          observation.batch_processing_time, width) == state

    @given(observation=observations, width=st.integers(1, 500))
    @settings(max_examples=80, deadline=None)
    def test_request_transition_monotone(self, observation, width):
        state = bucketize(observation, width)
        nxt = transition(state, ACTION_REQUEST,
                         observation.batch_processing_time, width)
        assert nxt[0] >= state[0] and nxt[1] >= state[1]


class TestQTableProperties:
    @given(entries=st.lists(
        st.tuples(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                  st.sampled_from([ACTION_WAIT, ACTION_REQUEST]),
                  st.floats(-1e6, 1e6, allow_nan=False)),
        max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_best_value_is_max(self, entries):
        table = QTable()
        for state, action, value in entries:
            table.set(state, action, value)
        for state, __, __ in entries:
            best = table.best_value(state)
            assert best >= table.get(state, ACTION_WAIT) - 1e-9
            assert best >= table.get(state, ACTION_REQUEST) - 1e-9
            assert best in (table.get(state, ACTION_WAIT),
                            table.get(state, ACTION_REQUEST))


class TestTraceSerialisationProperties:
    """``trace_from_dict(trace_to_dict(t))`` reproduces the trace exactly.

    Both representations must survive: the expanded per-tick ``samples``
    (what Fig. 13 consumers read) and the run-length ``runs`` structure
    (the canonical merged segments — rebuilding from per-tick samples
    must re-merge adjacent identical ticks into the same runs).
    """

    #: Per-segment decomposition counts plus the segment length.
    segments = st.lists(
        st.tuples(st.integers(1, 6),                    # run length
                  st.integers(0, 3), st.integers(0, 3),  # tr, qu
                  st.integers(0, 3)),                    # pr
        min_size=1, max_size=12)

    @given(segments=segments)
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_reproduces_samples_and_runs(self, segments):
        from repro.sim.serialize import trace_from_dict, trace_to_dict
        from repro.sim.trace import BottleneckTrace

        trace = BottleneckTrace()
        tick = 0
        for length, tr, qu, pr in segments:
            trace.record_run(tick, tick + length - 1, tr, qu, pr)
            tick += length
        rebuilt = trace_from_dict(trace_to_dict(trace))
        assert rebuilt.samples == trace.samples
        assert rebuilt.runs == trace.runs
        assert len(rebuilt) == len(trace)
