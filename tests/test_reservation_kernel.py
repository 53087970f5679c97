"""Native reservation store: equivalence and accounting.

Under the compiled switch every production table keeps its reservations
in the kernel's store (``store_reserve`` / ``store_purge`` are the two
mutating operations; the third, conflict search, is probes), and the
store must be a drop-in for the pure-python layouts: the same contents
bit for bit once exported back to the python layout (what a pickle
carries), the same counts under each table's accounting rule, and the
kept counts of either layout must never drift from a walk-from-scratch
recount.  The equivalence half builds the
extension on the fly (skipping where no compiler is available); the
counter-drift property and the planner accounting tests run under
whichever kernel is selected, so the pure-python CI job exercises them
with the extension never built.  Which kernel a run reaches is pinned
once, for every plane, by ``test_kernel::test_one_switch_routes_every_plane``.
"""

import base64
import copy
import pickle
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp

from repro.errors import ConfigurationError
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.paths import Path, packed_path
from repro.pathfinding.reservation import PackedChain
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.planners import PLANNERS
from repro.sim.engine import Simulation
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini
from tests.conftest import (assert_edges_have_arrivals, assert_retains_nothing,
                            count_kernel_calls)

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


WIDTH, HEIGHT = 12, 10

TABLES = {
    "cdt": lambda: ConflictDetectionTable(),
    "stgraph": lambda: SpatiotemporalGraph(Grid(WIDTH, HEIGHT)),
    "sharded-stgraph": lambda: ShardedSpatiotemporalGraph(tile_bits=2),
    # One-cell tiles: each reserved step opens or revisits its own block.
    "cell-tiled-stgraph": lambda: ShardedSpatiotemporalGraph(tile_bits=0),
}


def random_walk(rng, max_len=14, t_max=48, min_len=1, t_min=0):
    """A random wait-allowing lattice walk as a timed Path."""
    x, y = rng.randrange(WIDTH), rng.randrange(HEIGHT)
    cells = [(x, y)]
    for _ in range(rng.randrange(min_len, max_len)):
        options = [(x, y)]
        if x + 1 < WIDTH:
            options.append((x + 1, y))
        if x > 0:
            options.append((x - 1, y))
        if y + 1 < HEIGHT:
            options.append((x, y + 1))
        if y > 0:
            options.append((x, y - 1))
        x, y = rng.choice(options)
        cells.append((x, y))
    return Path.from_cells(cells, start_time=t_min + rng.randrange(t_max))


def random_ops(seed, n=60):
    """A concrete op tape: replayable against any table, any kernel.

    Reserves and purges — the whole mutation surface of a table, in
    roughly the 3:1 mix a planner wake generates.
    """
    rng = random.Random(seed)
    ops = []
    for _ in range(n):
        if rng.random() < 0.75:
            ops.append(("reserve", random_walk(rng)))
        else:
            ops.append(("purge", rng.randrange(40)))
    return ops


def apply_ops(table, ops):
    for op in ops:
        if op[0] == "reserve":
            table.reserve_path(op[1])
        else:
            table.purge_before(op[1])


def containers(table):
    """The vertex/edge containers of the table's python layout — exported
    from the store when the table holds one (compare by deep value)."""
    state = table.__getstate__()
    return state["_buckets"], state["_edge_buckets"]


def counts_under(kernel, table):
    """``live_counts``, ``recount`` and ``memory_bytes`` as the layout of
    ``kernel``'s switch answers them (the table converts to it first)."""
    set_search_kernel(kernel)
    return table.live_counts(), table.recount(), table.memory_bytes()


#: The kernels a test can select here (the extension may be absent).
KERNELS = ("python",) if COMPILED is None else ("python", "compiled")


class TestMutationKernelSelection:
    def test_search_selection_drives_mutations(self):
        # Tables read the one switch at call time: a table built under
        # the python switch mutates natively once the compiled one is
        # selected, and its counters stay exact across the change.
        for name, make_table in sorted(TABLES.items()):
            set_search_kernel("python")
            table = make_table()
            for seed, kernel in enumerate(KERNELS):
                set_search_kernel(kernel)
                with count_kernel_calls(
                        COMPILED, ["store_reserve", "store_purge"]) as calls:
                    apply_ops(table, random_ops(seed, 20) + [("purge", 45)])
                native = kernel == "compiled"
                assert bool(calls["store_reserve"]) == native, (name, kernel)
                assert bool(calls["store_purge"]) == native, (name, kernel)
            assert table.live_counts() == table.recount(), name


@needs_compiled
@pytest.mark.parametrize("name", sorted(TABLES))
class TestMutationBitIdentity:
    """Twin tables, identical op tapes, one per kernel — equal states."""

    def twins(self, name, seed, n=60):
        ops = random_ops(seed, n)
        set_search_kernel("compiled")
        compiled_table = TABLES[name]()
        apply_ops(compiled_table, ops)
        set_search_kernel("python")
        python_table = TABLES[name]()
        apply_ops(python_table, ops)
        return compiled_table, python_table

    def test_random_ops_bit_identical(self, name):
        for seed in range(6):
            compiled_table, python_table = self.twins(name, seed)
            assert containers(compiled_table) == containers(python_table)
            # Each layout counts under its own switch: the store's kept
            # counts equal a walk of its blocks, and both equal the python
            # layout's.
            counts, recounted, footprint = counts_under("compiled",
                                                        compiled_table)
            assert counts == recounted
            assert (counts, recounted, footprint) == counts_under(
                "python", python_table)

    def test_purges_past_the_window_wrap_and_empty_the_ring(self, name):
        # A live window sliding forward wraps ticks round the ring; purges
        # that jump past every live tick empty it, and a reservation far
        # above a fresh floor widens it.  After every op the store exports
        # what the python layout holds and counts what it counts.
        rng = random.Random(11)
        ops = []
        for k in range(14):
            ops += [("reserve", random_walk(rng, t_max=20, t_min=30 * k))
                    for __ in range(3)] + [("purge", 30 * k + 10)]
        ops += [("purge", 2_000), ("reserve", random_walk(rng, t_min=2_000)),
                ("purge", 2_005), ("reserve", random_walk(rng, t_min=2_500)),
                ("purge", 9_000), ("purge", 9_000),
                ("reserve", random_walk(rng, t_min=8_990))]
        tables = {}
        for kernel in KERNELS:
            set_search_kernel(kernel)
            tables[kernel] = TABLES[name]()
        for op in ops:
            for kernel, table in tables.items():
                set_search_kernel(kernel)
                apply_ops(table, [op])
            compiled, python = tables["compiled"], tables["python"]
            assert containers(compiled) == containers(python), op
            counts = counts_under("compiled", compiled)
            assert counts[0] == counts[1], op
            assert counts == counts_under("python", python), op
        assert counts[0]["edges"] > 0

    def test_audits_agree(self, name):
        # Containers built by either kernel answer the reference walk
        # alike (``audit_path`` itself is kernel-independent).
        compiled_table, python_table = self.twins(name, 1234)
        rng = random.Random(99)
        probes = [random_walk(rng) for _ in range(40)]
        compiled_answers = [compiled_table.audit_path(p) for p in probes]
        python_answers = [python_table.audit_path(p) for p in probes]
        assert compiled_answers == python_answers
        assert not all(compiled_answers)  # some probe actually conflicted

    def test_purge_counters_stay_exact(self, name):
        compiled_table, python_table = self.twins(name, 42, n=40)
        for t in (10, 25, 60):
            set_search_kernel("compiled")
            compiled_table.purge_before(t)
            set_search_kernel("python")
            python_table.purge_before(t)
            assert containers(compiled_table) == containers(python_table)
            counts = counts_under("compiled", compiled_table)
            assert counts[0] == counts[1]
            assert counts == counts_under("python", python_table)


def keys_of(cells):
    return array("q", Path.from_cells(cells, 0).keys)


#: A lawful lane on the 12x10 floor, and the hand-offs that are not:
#: ``(buffer, exception)`` — every one refused before the table changes.
LANE = [(x, 4) for x in range(2, 9)]
BAD_BUFFERS = {
    "int32 items": (array("i", range(7)), TypeError),
    "bytes": (bytes(56), TypeError),
    "doubles": (array("d", [0.0] * 7), TypeError),
    "a list": ([1, 2, 3], TypeError),
    "two-dimensional": (memoryview(bytes(64)).cast("q", (4, 2)), TypeError),
    "strided view": (memoryview(keys_of(LANE + LANE[::-1]))[::2], ValueError),
    "empty": (array("q"), ValueError),
    "jump": (keys_of(LANE[:3]) + keys_of(LANE[5:]), ValueError),
    "diagonal": (array("q", [(2 << 16) | 4, (3 << 16) | 5]), ValueError),
    "column wrap": (array("q", [65_535, 65_536]), ValueError),
    "negative key": (array("q", [-1]), ValueError),
    "beyond 32 bits": (array("q", [1 << 32]), ValueError),
}


@needs_compiled
@pytest.mark.parametrize("name", sorted(TABLES))
class TestReservePathTakesOnlyLawfulBuffers:
    """``store_reserve`` applies the kernel's path rule to whatever it is
    handed, and refuses before mutating anything."""

    def loaded(self, name):
        set_search_kernel("compiled")
        table = TABLES[name]()
        apply_ops(table, random_ops(7, 20))  # purge floors stay below 40
        return table, copy.deepcopy(containers(table)), table.live_counts()

    @pytest.mark.parametrize("case", sorted(BAD_BUFFERS))
    def test_bad_buffer_raises_and_leaves_the_table(self, name, case):
        buffer, error = BAD_BUFFERS[case]
        table, before, counts = self.loaded(name)
        with pytest.raises(error):
            COMPILED.store_reserve(table.kernel_probe_spec(), 50, buffer)
        assert containers(table) == before
        assert table.live_counts() == counts == table.recount()

    def test_lawful_views_of_other_exporters_are_taken(self, name):
        # the rule is on the buffer, not on its type
        table, __, __ = self.loaded(name)
        twin, __, __ = self.loaded(name)
        table.reserve_path(Path.from_cells(LANE, 50))
        view = memoryview(keys_of(LANE).tobytes()).cast("q")
        COMPILED.store_reserve(twin.kernel_probe_spec(), 50, view)
        assert containers(twin) == containers(table)
        assert twin.live_counts() == table.live_counts() == table.recount()

    def test_cell_outside_the_layer_inserts_nothing(self, name):
        # Two lawful steps, then off the 12x10 floor: only the dense
        # graph has a layer to fall off (IndexError, as in python); the
        # sparse tables take any cell a key can name.
        table, before, counts = self.loaded(name)
        walk = Path.from_cells([(10, 9), (11, 9), (12, 9)], 50)
        if name == "stgraph":
            with pytest.raises(IndexError):
                table.reserve_path(walk)
            assert containers(table) == before
            assert table.live_counts() == counts
        else:
            table.reserve_path(walk)
            assert not table.is_free(52, (12, 9))
        assert table.live_counts() == table.recount()

    def test_store_rule_out_of_range_is_refused(self, name):
        # tiles wider than a key's half-word, a layer with no cells, cells
        # with no layer height
        for rule in ((17, 0, 0), (-1, 10, 0), (-1, 0, 120), (-1, -10, -1)):
            with pytest.raises(ValueError):
                COMPILED.store_new(None, *rule)

    def test_inserting_buffers_retains_nothing(self, name):
        # Reserve the same lanes over and over (idempotent after the
        # first pass): 10 000 calls leave the heap and every reference
        # count where a warm pass left them.
        table, __, __ = self.loaded(name)
        lanes = [packed_path(50 + i, keys_of([(x, i) for x in range(12)]))
                 for i in range(10)]
        keys = [lane.keys for lane in lanes]

        def reserve_all():
            for lane in lanes:
                table.reserve_path(lane)

        assert_retains_nothing(reserve_all, watched=keys, calls=1_000)
        assert table.live_counts() == table.recount()


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
def test_tables_hand_the_kernel_their_store(kernel):
    # One native layout: every table answers its store capsule under the
    # compiled switch and nothing under the python one.
    set_search_kernel(kernel)
    tables = [make_table() for make_table in TABLES.values()]
    specs = [table.kernel_probe_spec() for table in tables]
    if kernel == "python":
        assert specs == [None] * len(TABLES)
    else:
        assert {type(spec).__name__ for spec in specs} == {"PyCapsule"}
        assert len({id(spec) for spec in specs}) == len(TABLES)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_python_walkers_refuse_the_store(name):
    # The python core and ``audit_chain`` read the buckets, which only
    # the python switch's layout holds: under the compiled switch they
    # refuse with a typed error, and under the python one they read them.
    table = TABLES[name]()
    table.reserve_path(Path.from_cells(LANE, 3))
    chain = PackedChain(tuple(LANE), [(x << 16) | y for x, y in LANE])
    if COMPILED is not None:
        set_search_kernel("compiled")
        with pytest.raises(ConfigurationError, match="python layout"):
            table.audit_chain(3, chain, len(LANE) - 1)
    set_search_kernel("python")
    assert not table.audit_chain(3, chain, len(LANE) - 1)
    assert table.audit_chain(3 + len(LANE), chain, len(LANE) - 1)


#: Ticks from here up overflowed the retired numpy audit index's packing.
HIGH_TICK = 1 << 28


def move_oracle(table, path):
    """``audit_path`` spelt as one ``move_allowed`` probe per step."""
    steps = path.steps
    return all(table.move_allowed(t0, (x0, y0), (x1, y1))
               for (t0, x0, y0), (_, x1, y1) in zip(steps, steps[1:]))


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_long_audits_match_move_oracle(name, kernel):
    """17-120-step audits, at low and >= 2**28 ticks, over tables built
    by either mutation kernel."""
    set_search_kernel(kernel)
    rng = random.Random(5)
    table = TABLES[name]()

    def long_walk(base):
        return random_walk(rng, min_len=17, max_len=121, t_max=400,
                           t_min=base)

    for base in (0, HIGH_TICK):
        # The dense graph materialises every layer between its floor and
        # a reserved tick, so the high phase starts from a raised floor.
        table.purge_before(base)
        for _ in range(6):
            table.reserve_path(long_walk(base))
        probes = [long_walk(base) for _ in range(60)]
        answers = [table.audit_path(path) for path in probes]
        assert answers == [move_oracle(table, path) for path in probes]
        assert True in answers and False in answers


@hyp.composite
def drawn_walk(draw):
    """A leg on the 12x10 floor: waits where a move is drawn as (0, 0) or
    runs into the edge, 4-cell tiles crossed all the time."""
    x, y = draw(hyp.integers(0, WIDTH - 1)), draw(hyp.integers(0, HEIGHT - 1))
    cells = [(x, y)]
    for dx, dy in draw(hyp.lists(hyp.sampled_from(
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]), max_size=14)):
        x = min(max(x + dx, 0), WIDTH - 1)
        y = min(max(y + dy, 0), HEIGHT - 1)
        cells.append((x, y))
    return Path.from_cells(cells, start_time=draw(hyp.integers(0, 40)))


#: reserve a drawn leg, purge to a drawn floor (which may not move it),
#: or reserve an earlier leg again — now perhaps across the floor.
drawn_ops = hyp.lists(
    hyp.one_of(drawn_walk(), hyp.integers(0, 45),
               hyp.tuples(hyp.just("again"), hyp.integers(0, 24))),
    min_size=1, max_size=25)


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=drawn_ops)
def test_property_stored_edges_have_arrivals(name, kernel, ops):
    """What swap gating rests on, after every mutation: an edge in the
    table has its arrival vertex in the table, and a step below the purge
    floor leaves neither half."""
    set_search_kernel(kernel)
    table = TABLES[name]()
    floor, legs = 0, []
    for op in ops:
        if isinstance(op, int):
            table.purge_before(op)
            floor = max(floor, op)
        elif isinstance(op, tuple) and not legs:
            continue
        else:
            leg = legs[op[1] % len(legs)] if isinstance(op, tuple) else op
            legs.append(leg)
            table.reserve_path(leg)
            assert all(table.is_free_packed(t, key) for t, key in
                       zip(range(leg.start_time, floor), leg.keys))
        assert_edges_have_arrivals(table)
        assert all(t >= floor for t in table.__getstate__()["_edge_buckets"])
    assert table.live_counts() == table.recount()


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=hyp.integers(min_value=0, max_value=10 ** 9))
def test_property_counts_match_live_reservations(name, kernel, seed):
    """Each accounting rule counts the live reservations as the layout it
    models would hold them, checked after every op against a replay of
    the tape: the CDT its (tick, cell) entries and their ticks, the dense
    graph every layer from the floor to the latest live tick, the tiled
    graph the distinct (tick, tile) pairs and their ticks."""
    set_search_kernel(kernel)
    table = TABLES[name]()
    floor, live = 0, set()
    for op, arg in random_ops(seed, n=40):
        if op == "purge":
            table.purge_before(arg)
            floor = max(floor, arg)
            live = {(t, cell) for t, cell in live if t >= floor}
        else:
            table.reserve_path(arg)
            live |= {(t, (x, y)) for t, x, y in arg.steps if t >= floor}
        counts = table.live_counts()
        ticks = {t for t, __ in live}
        if name == "cdt":
            assert (counts["reservations"], counts["ticks_live"]) == (
                len(live), len(ticks))
        elif name == "stgraph":
            assert counts["layers"] == (max(ticks) - floor + 1 if live
                                        else 0)
        else:
            bits = 2 if name == "sharded-stgraph" else 0
            assert counts["tile_layers"] == len(
                {(t, x >> bits, y >> bits) for t, (x, y) in live})
            assert counts["layers"] == len(ticks)
    assert table.live_counts() == table.recount()


@pytest.mark.parametrize("kernel", [
    pytest.param("compiled", marks=needs_compiled), "python"])
def test_dense_graph_refuses_a_cell_off_the_floor(kernel):
    # The dense graph's layer has no place for a cell off its 12x10
    # floor: either layout refuses the leg before inserting any of it.
    set_search_kernel(kernel)
    table = TABLES["stgraph"]()
    table.reserve_path(Path.from_cells(LANE, 3))
    before, counts = copy.deepcopy(containers(table)), table.live_counts()
    for cells in ([(10, 9), (11, 9), (12, 9)], [(4, 8), (4, 9), (4, 10)]):
        with pytest.raises(IndexError):
            table.reserve_path(Path.from_cells(cells, 5))
        assert containers(table) == before
        assert table.live_counts() == counts == table.recount()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=hyp.integers(min_value=0, max_value=10 ** 9))
def test_property_incremental_matches_recount(seed):
    """Counters never drift from a from-scratch recount, any kernel.

    Exercises every production table through randomized reserves and
    purges, under whichever mutation kernel the test run selected (the
    pure-python CI job runs this with the extension never built).
    """
    ops = random_ops(seed, n=50)
    for name, make_table in sorted(TABLES.items()):
        table = make_table()
        apply_ops(table, ops)
        counts = table.live_counts()
        recounted = table.recount()
        assert counts == recounted, (name, counts, recounted)
        assert table.memory_bytes() == recounted["memory_bytes"]


class TestPlannerAccounting:
    @needs_compiled
    def test_both_kernels_account_alike(self):
        # The modelled memory a run reports does not depend on which
        # core mutated its table.
        results = {}
        for kernel in ("python", "compiled"):
            set_search_kernel(kernel)
            state, items = make_mini(n_items=12).build()
            planner = PLANNERS["NTP"](state)
            try:
                results[kernel] = Simulation(state, planner, items).run()
            finally:
                planner.close()
        python = results["python"].metrics
        compiled = results["compiled"].metrics
        assert compiled.makespan == python.makespan
        assert compiled.peak_memory_bytes == python.peak_memory_bytes
        assert ([s.memory_bytes for s in compiled.checkpoints]
                == [s.memory_bytes for s in python.checkpoints])

    def test_purges_keep_counters_exact(self):
        set_search_kernel("python")
        scenario = make_mini(n_items=24)
        state, items = scenario.build()
        planner = PLANNERS["NTP"](state)
        try:
            Simulation(state, planner, items).run()
        finally:
            planner.close()
        # The run crosses the purge cadence; the purged table's
        # incremental counters still equal a recount.
        table = planner.reservation
        assert table._floor > 0
        assert table.live_counts() == table.recount()

    def test_memory_bytes_tracks_mutations(self):
        set_search_kernel("python")
        scenario = make_mini(n_items=8)
        state, items = scenario.build()
        planner = PLANNERS["NTP"](state)
        try:
            Simulation(state, planner, items).run()
        finally:
            planner.close()
        # The planner's sample is the table's bytes plus the extras, and
        # keeps tracking after further mutations.
        assert planner.memory_bytes() == (
            planner.reservation.memory_bytes()
            + planner._extra_memory_bytes())
        planner.reservation.reserve_path(
            Path.from_cells([(0, 0), (0, 1)], 10 ** 6))
        assert planner.memory_bytes() == (
            planner.reservation.recount()["memory_bytes"]
            + planner._extra_memory_bytes())

    def test_peak_memory_is_commit_high_water(self):
        set_search_kernel("python")
        scenario = make_mini(n_items=12)
        state, items = scenario.build()
        planner = PLANNERS["NTP"](state)
        try:
            result = Simulation(state, planner, items).run()
        finally:
            planner.close()
        assert planner.peak_memory_bytes > 0
        assert result.metrics.peak_memory_bytes == planner.peak_memory_bytes
        assert planner.peak_memory_bytes >= max(
            s.memory_bytes for s in result.metrics.checkpoints)


# -- each rule's accounting, frozen ----------------------------------------

#: One fixed reserve-and-purge tape: ``(op, start tick or purge floor,
#: cells)``.  It waits, crosses tiles of every size tested, reserves
#: below a floor and purges twice.
RULE_TAPE = (
    ("reserve", 2, ((0, 0), (1, 0), (2, 0), (2, 1), (2, 1), (3, 1))),
    ("reserve", 0, ((9, 9), (9, 8), (8, 8), (8, 7), (7, 7), (7, 6), (6, 6))),
    ("reserve", 6, ((5, 5), (5, 5), (5, 5), (5, 4), (4, 4))),
    ("reserve", 12, ((11, 0), (10, 0), (9, 0), (8, 0))),
    ("purge", 4, None),
    ("reserve", 8, ((3, 1), (4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 1))),
    ("reserve", 2, ((0, 9), (1, 9), (1, 8), (2, 8), (3, 8))),
    ("purge", 9, None),
)

#: Tape positions after which the counts are read.
RULE_SNAPSHOTS = (3, 4, 7)

RULE_TABLES = {
    "cdt": lambda: ConflictDetectionTable(),
    "stgraph": lambda: SpatiotemporalGraph(Grid(WIDTH, HEIGHT)),
    "tiled-0": lambda: ShardedSpatiotemporalGraph(tile_bits=0),
    "tiled-3": lambda: ShardedSpatiotemporalGraph(tile_bits=3),
}

#: ``live_counts()`` at each snapshot, recorded before the three table
#: classes were folded into one rule-as-data class.
RECORDED_RULE_COUNTS = {
    "cdt": [
        {"reservations": 22, "ticks_live": 15, "edges": 15,
         "edge_ticks": 12, "memory_bytes": 4600},
        {"reservations": 16, "ticks_live": 11, "edges": 9,
         "edge_ticks": 8, "memory_bytes": 3152},
        {"reservations": 12, "ticks_live": 7, "edges": 9,
         "edge_ticks": 6, "memory_bytes": 2496}],
    "stgraph": [
        {"layers": 16, "edges": 15, "edge_ticks": 12, "memory_bytes": 4252},
        {"layers": 12, "edges": 9, "edge_ticks": 8, "memory_bytes": 2916},
        {"layers": 7, "edges": 9, "edge_ticks": 6, "memory_bytes": 2188}],
    "tiled-0": [
        {"layers": 15, "tile_layers": 22, "edges": 15, "edge_ticks": 12,
         "memory_bytes": 2354},
        {"layers": 11, "tile_layers": 16, "edges": 9, "edge_ticks": 8,
         "memory_bytes": 1492},
        {"layers": 7, "tile_layers": 12, "edges": 9, "edge_ticks": 6,
         "memory_bytes": 1360}],
    "tiled-3": [
        {"layers": 15, "tile_layers": 17, "edges": 15, "edge_ticks": 12,
         "memory_bytes": 3420},
        {"layers": 11, "tile_layers": 11, "edges": 9, "edge_ticks": 8,
         "memory_bytes": 2180},
        {"layers": 7, "tile_layers": 8, "edges": 9, "edge_ticks": 6,
         "memory_bytes": 1860}],
}

#: A ``SpatiotemporalGraph(Grid(12, 10))`` and a
#: ``ShardedSpatiotemporalGraph(3)`` holding the tape up to its first
#: purge, pickled (protocol 4, python switch) by the build with one class
#: per table.
PICKLED_BEFORE_THE_FOLD = {
    "stgraph": (
        "gASV+wEAAAAAAACMJnJlcHJvLnBhdGhmaW5kaW5nLnNwYXRpb3RlbXBvcmFsX2dyYXBo"
        "lIwTU3BhdGlvdGVtcG9yYWxHcmFwaJSTlCmBlH2UKIwFX2dyaWSUjBRyZXByby53YXJl"
        "aG91c2UuZ3JpZJSMBEdyaWSUk5RLDEsKKYeUUpSMDm11dGF0aW9uX3N0YW1wlEsFjAhf"
        "YnVja2V0c5R9lChLBI+UKEoAAAIASgcABwCQSwWPlChKAQACAEoGAAcAkEsGj5QoSgEA"
        "AgBKBQAFAEoGAAYAkEsHj5QoSgEAAwBKBQAFAJBLCI+UKEoFAAUAkEsJj5QoSgQABQCQ"
        "SwqPlChKBAAEAJBLDI+UKEoAAAsAkEsNj5QoSgAACgCQSw6PlChKAAAJAJBLD4+UKEoA"
        "AAgAkHWMBl9mbG9vcpRLBIwKX25fZW50cmllc5RLEIwNX2VkZ2VfYnVja2V0c5R9lChL"
        "BI+UKIoHAQACAAAAAooHBgAHAAcAB5BLBo+UKIoHAQADAAEAApBLBY+UKIoHBgAGAAYA"
        "B5BLCI+UKIoHBAAFAAUABZBLCY+UKIoHBAAEAAQABZBLDI+UKIoHAAAKAAAAC5BLDY+U"
        "KIoHAAAJAAAACpBLDo+UKIoHAAAIAAAACZB1jAtfZWRnZV9mbG9vcpRLBIwIX25fZWRn"
        "ZXOUSwl1Yi4="),
    "tiled-3": (
        "gASVYQIAAAAAAACMJnJlcHJvLnBhdGhmaW5kaW5nLnNwYXRpb3RlbXBvcmFsX2dyYXBo"
        "lIwaU2hhcmRlZFNwYXRpb3RlbXBvcmFsR3JhcGiUk5QpgZR9lCiMCl90aWxlX2JpdHOU"
        "SwOMC190aWxlX2NlbGxzlEtAjA5tdXRhdGlvbl9zdGFtcJRLBYwIX2J1Y2tldHOUfZQo"
        "SwSPlChKAAACAEoHAAcAkEsFj5QoSgEAAgBKBgAHAJBLBo+UKEoBAAIASgUABQBKBgAG"
        "AJBLB4+UKEoBAAMASgUABQCQSwiPlChKBQAFAJBLCY+UKEoEAAUAkEsKj5QoSgQABACQ"
        "SwyPlChKAAALAJBLDY+UKEoAAAoAkEsOj5QoSgAACQCQSw+PlChKAAAIAJB1jAZfZmxv"
        "b3KUSwSMCl9uX2VudHJpZXOUSxCMDV9lZGdlX2J1Y2tldHOUfZQoSwSPlCiKBwEAAgAA"
        "AAKKBwYABwAHAAeQSwaPlCiKBwEAAwABAAKQSwWPlCiKBwYABgAGAAeQSwiPlCiKBwQA"
        "BQAFAAWQSwmPlCiKBwQABAAEAAWQSwyPlCiKBwAACgAAAAuQSw2PlCiKBwAACQAAAAqQ"
        "Sw6PlCiKBwAACAAAAAmQdYwLX2VkZ2VfZmxvb3KUSwSMCF9uX2VkZ2VzlEsJjAZfdGls"
        "ZXOUfZQoSwSPlChLAJBLBY+UKEsAkEsGj5QoSwCQSwePlChLAJBLCI+UKEsAkEsJj5Qo"
        "SwCQSwqPlChLAJBLDI+UKEoAAAEAkEsNj5QoSgAAAQCQSw6PlChKAAABAJBLD4+UKEoA"
        "AAEAkHV1Yi4="),
}


def play_rule_tape(table, ops):
    """Apply ``ops`` (a slice of :data:`RULE_TAPE`) to ``table``."""
    for op, arg, cells in ops:
        if op == "reserve":
            table.reserve_path(Path.from_cells(list(cells), arg))
        else:
            table.purge_before(arg)


def all_probes(table):
    """Every vertex and move probe over the tape's ticks and floor."""
    cells = [(x, y) for x in range(WIDTH) for y in range(HEIGHT)]
    return ([table.is_free(t, cell) for t in range(22) for cell in cells],
            [table.move_allowed(t, cell, (cell[0] + 1, cell[1]))
             for t in range(21) for cell in cells])


@pytest.mark.parametrize("kernel", KERNELS)
class TestRecordedRuleAccounting:
    """Each rule's counts on one fixed tape, frozen from the build with
    one class per table: the fold into one class must charge alike."""

    @pytest.mark.parametrize("name", sorted(RULE_TABLES))
    def test_tape(self, kernel, name):
        set_search_kernel(kernel)
        table = RULE_TABLES[name]()
        seen = []
        for i, op in enumerate(RULE_TAPE):
            play_rule_tape(table, [op])
            if i in RULE_SNAPSHOTS:
                counts = table.live_counts()
                assert table.recount() == counts
                assert table.memory_bytes() == counts["memory_bytes"]
                seen.append(counts)
        assert seen == RECORDED_RULE_COUNTS[name]

    @pytest.mark.parametrize("name", sorted(PICKLED_BEFORE_THE_FOLD))
    def test_pickle_from_before_the_fold_loads(self, kernel, name):
        # The older build's pickle restores into this build's class with
        # its rule: equal probes and counts, then and after more traffic.
        set_search_kernel(kernel)
        table = pickle.loads(base64.b64decode(PICKLED_BEFORE_THE_FOLD[name]))
        twin = RULE_TABLES[name]()
        play_rule_tape(twin, RULE_TAPE[:5])
        assert all_probes(table) == all_probes(twin)
        assert table.live_counts() == RECORDED_RULE_COUNTS[name][1]
        play_rule_tape(table, RULE_TAPE[5:])
        play_rule_tape(twin, RULE_TAPE[5:])
        assert all_probes(table) == all_probes(twin)
        assert table.live_counts() == RECORDED_RULE_COUNTS[name][2]
        assert table.recount() == RECORDED_RULE_COUNTS[name][2]
