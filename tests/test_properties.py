"""Property-based tests (hypothesis) on the core data structures.

These pin down the algebraic invariants the pathfinding stack rests on:
descent optimality against BFS ground truth, reservation-structure equivalence,
conflict-detector correctness against a naive oracle, and Q-table algebra.
"""

from hypothesis import given, settings, strategies as st

from repro.config import QLearningConfig
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.conflicts import find_conflicts, is_conflict_free
from repro.pathfinding.free_flow import FreeFlowPathCache
from repro.pathfinding.heuristics import HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import SpatiotemporalGraph
from repro.pathfinding.st_astar import SEARCH_COMPLETE, SearchRequest, search
from repro.rl.mdp import ACTION_REQUEST, ACTION_WAIT
from repro.rl.qlearning import QLearningAgent
from repro.rl.qtable import QTable
from repro.types import manhattan
from repro.warehouse.grid import Grid
from tests.conftest import rack_facts

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
        bfs = grid.distance_flat(source)[grid.cell_index(goal)]
        if bfs < 0:
            assert chain is None
            return
        path = chain.cells
        assert path[0] == source and path[-1] == goal
        assert len(path) - 1 == bfs
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
        outcome = search(grid, cdt, SearchRequest(source, goal, t0,
                                                  max_expansions=20_000))
        if not outcome.ok:
            return  # saturated start cell can be legitimately unsolvable
        ours = outcome.path
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
        outcome = search(grid, ConflictDetectionTable(),
                         SearchRequest(source, goal, t0))
        assert outcome.status == SEARCH_COMPLETE
        assert outcome.path.duration == manhattan(source, goal)


class TestMdpProperties:
    facts = st.tuples(st.integers(0, 200), st.integers(0, 200),
                      st.integers(0, 40), st.integers(1, 100),
                      st.integers(0, 2_000))

    @given(ap=st.integers(0, 10_000), ar=st.integers(0, 10_000),
           batch=st.integers(0, 2_000), width=st.integers(1, 500))
    @settings(max_examples=40, deadline=None)
    def test_bucketize_monotone_and_consistent(self, ap, ar, batch, width):
        assert rack_facts(ap, ar, batch, width)[:3] == (
            ap // width, ar // width, batch // width)
        # One more bin width of accumulated time never lowers a bucket.
        more = rack_facts(ap + width, ar + width, batch, width)
        assert more[0] == ap // width + 1 and more[1] == ar // width + 1

    @given(state=st.tuples(st.integers(0, 200), st.integers(0, 200)),
           delta=st.integers(0, 40), n_pending=st.integers(1, 100),
           f_p=st.integers(0, 2_000), d=st.integers(1, 200),
           weight=st.floats(0.5, 50))
    @settings(max_examples=80, deadline=None)
    def test_costs_on_an_empty_table_are_the_immediate_costs(
            self, state, delta, n_pending, f_p, d, weight):
        agent = QLearningAgent(QLearningConfig(deferral_weight=weight))
        u_wait, u_request = agent.lookahead(*state, delta, n_pending,
                                            max(f_p, d))
        assert u_wait == -weight * n_pending
        assert u_request == -max(f_p, d)
        assert u_wait <= 0 and u_request <= 0

    @given(facts=facts, values=st.lists(
        st.floats(-1e4, 0, allow_nan=False), min_size=4, max_size=4),
        weight=st.floats(0.5, 50))
    @settings(max_examples=80, deadline=None)
    def test_costs_always_negative(self, facts, values, weight):
        # Every cost is <= 0, so a table the learner filled stays <= 0
        # and no utility read from it turns positive.
        agent = QLearningAgent(QLearningConfig(deferral_weight=weight))
        s0, s1, delta = facts[:3]
        for state, pair in (((s0, s1), values[:2]),
                            ((s0 + delta, s1 + delta), values[2:])):
            agent.table.set(state, ACTION_WAIT, pair[0])
            agent.table.set(state, ACTION_REQUEST, pair[1])
        u_wait, u_request = agent.lookahead(*facts)
        assert u_wait < 0 and u_request <= 0

    @staticmethod
    def filled_agent(facts, values):
        """An agent whose table holds ``values`` at the rack's state and
        at the state one REQUEST advances it to: (agent, here, there)."""
        agent = QLearningAgent()
        s0, s1, delta = facts[:3]
        here, there = (s0, s1), (s0 + delta, s1 + delta)
        agent.table.set(here, ACTION_WAIT, values[0])
        agent.table.set(here, ACTION_REQUEST, values[1])
        agent.table.set(there, ACTION_WAIT, values[2])
        agent.table.set(there, ACTION_REQUEST, values[3])
        return agent, here, there

    @given(facts=facts, values=st.lists(
        st.floats(-1e4, 0, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_wait_transition_is_identity(self, facts, values):
        agent, here, __ = self.filled_agent(facts, values)
        u_wait = agent.lookahead(*facts)[0]
        gamma, weight = agent.config.discount, agent.config.deferral_weight
        assert u_wait == (-weight * float(facts[3])
                          + gamma * agent.table.best_value(here))

    @given(facts=facts, values=st.lists(
        st.floats(-1e4, 0, allow_nan=False), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_request_transition_monotone(self, facts, values):
        # REQUEST bootstraps from both counters advanced by δ >= 0.
        agent, __, there = self.filled_agent(facts, values)
        u_request = agent.lookahead(*facts)[1]
        assert u_request == (-float(facts[4])
                             + agent.config.discount
                             * agent.table.best_value(there))


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
