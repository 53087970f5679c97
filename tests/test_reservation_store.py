"""The reservation store's boundary: what it refuses, what it holds on to.

Every native entry point that takes a store — ``store_reserve``,
``store_purge``, ``store_probe``, ``store_counts``, ``store_export``,
``run`` and ``leg`` — serves nothing but a live store capsule: a
foreign object in the slot raises ``TypeError``, a store whose table is
gone ``ValueError``.  ``store_reserve`` and ``store_new`` refuse keys that
break the path rule.  Each refusal comes before anything changes.  The
store allocates through ``PyMem_*``, so tracemalloc sees it: a constant
live window costs constant memory however long it slides, and a dropped
table hands its blocks back.
"""

import gc
import tracemalloc
from array import array

import pytest

from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.paths import Path
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.warehouse.grid import Grid
from tests.conftest import assert_retains_nothing

COMPILED = build_and_load()

pytestmark = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")

WIDTH, HEIGHT = 12, 10

TABLES = {
    "cdt": lambda: ConflictDetectionTable(),
    "stgraph": lambda: SpatiotemporalGraph(Grid(WIDTH, HEIGHT)),
    "sharded-stgraph": lambda: ShardedSpatiotemporalGraph(tile_bits=2),
    "cell-tiled-stgraph": lambda: ShardedSpatiotemporalGraph(tile_bits=0),
}

LANE = [(x, 4) for x in range(2, 9)]


@pytest.fixture(autouse=True)
def _compiled_switch():
    previous = search_kernel_name()
    set_search_kernel("compiled")
    yield
    set_search_kernel(previous)


def keys_of(cells):
    return array("q", [(x << 16) | y for x, y in cells])


def loaded(name):
    """A table holding a lane walked both ways, purged once."""
    table = TABLES[name]()
    for t in range(0, 30, 3):
        table.reserve_path(Path.from_cells(LANE, t))
        table.reserve_path(Path.from_cells(LANE[::-1], t + 1))
    table.purge_before(5)
    return table


def dead_store():
    """The store of a table that has been garbage-collected."""
    table = loaded("cdt")
    store = table.kernel_probe_spec()
    del table
    gc.collect()
    return store


#: What can sit in a store slot besides a live store, and what it raises.
NOT_A_STORE = {
    "grid capsule": (lambda: Grid(WIDTH, HEIGHT).kernel_capsule(COMPILED),
                     TypeError),
    "None": (lambda: None, TypeError),
    "a dict": (lambda: {0: {(2 << 16) | 4}}, TypeError),
    "dead table's store": (dead_store, ValueError),
}


def entry_calls(store):
    """One call per native entry point that takes a store."""
    grid = Grid(WIDTH, HEIGHT)
    capsule = grid.kernel_capsule(COMPILED)
    source, goal = grid.cell_index(LANE[0]), grid.cell_index(LANE[-1])
    return {
        "store_reserve": lambda: COMPILED.store_reserve(
            store, 40, keys_of(LANE)),
        "store_purge": lambda: COMPILED.store_purge(store, 20),
        "store_probe": lambda: COMPILED.store_probe(store, 6, (2 << 16) | 4),
        "store_counts": lambda: COMPILED.store_counts(store),
        "store_export": lambda: COMPILED.store_export(store),
        "run": lambda: COMPILED.run(
            capsule, store, 1, LANE[-1], source, goal, 0, 200_000, 0, 0, 0,
            0),
        "leg": lambda: COMPILED.leg(
            capsule, store, 1, None, source, goal, 0, 0, 0, 0, 200_000, 0),
    }


ENTRIES = ["leg", "run", "store_counts", "store_export", "store_probe",
           "store_purge", "store_reserve"]


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case", sorted(NOT_A_STORE))
def test_only_a_live_store_is_served(case, entry):
    make, error = NOT_A_STORE[case]
    bystander = loaded("sharded-stgraph")
    before = bystander.live_counts()
    with pytest.raises(error, match="store"):
        entry_calls(make())[entry]()
    assert bystander.live_counts() == before == bystander.recount()


#: Key buffers that break the path rule (``keys_check``).
UNLAWFUL = {
    "jump": keys_of(LANE[:2] + LANE[4:]),
    "diagonal": array("q", [(2 << 16) | 4, (3 << 16) | 5]),
    "beyond 32 bits": array("q", [1 << 32]),
    "empty": array("q"),
}


@pytest.mark.parametrize("case", sorted(UNLAWFUL))
@pytest.mark.parametrize("name", sorted(TABLES))
def test_unlawful_keys_leave_the_store_as_it_was(name, case):
    table = loaded(name)
    store = table.kernel_probe_spec()
    counts = COMPILED.store_counts(store)
    exported = COMPILED.store_export(store)
    with pytest.raises(ValueError):
        COMPILED.store_reserve(store, 12, UNLAWFUL[case])
    assert COMPILED.store_counts(store) == counts
    assert COMPILED.store_export(store) == exported


@pytest.mark.parametrize("state, error", [
    ([0, 0, 0, {}, {}], TypeError),                    # not a tuple
    ((0, 0, 0, [], {}), TypeError),                    # not a dict
    ((0, 0, 0, {3: [1 << 32]}, {}), ValueError),       # not a cell key
    ((0, 0, 0, {3: [-1]}, {}), ValueError),
    ((0, 0, 0, {}, {3: [(5 << 32) | 5]}), ValueError),  # edge onto itself
    ((0, 0, 0, {}, {3: [-1]}), ValueError),
    ((0, 0, 0, {3: [(12 << 16) | 9]}, {}), ValueError),  # off the layer
    ((0, 0, 0, {}, {3: [(5 << 32) | 7]}), ValueError),  # a jump
    ((0, 0, 0, {3: [6]}, {3: [(5 << 32) | 6]}), ValueError),  # no arrival
    ((2, 0, 0, {}, {}), ValueError),                   # two floors
])
def test_store_new_refuses_an_unlawful_state(state, error):
    with pytest.raises(error):
        COMPILED.store_new(None, -1, HEIGHT, WIDTH * HEIGHT, state)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_a_sliding_window_retains_nothing(name):
    # 10 000 reserve + purge cycles over a constant live window of ten
    # ticks: every purged block hands its keys back, so nothing
    # accumulates (the window's own blocks, made while tracing, are
    # ~2 KB of the 4 KB allowed).
    table = TABLES[name]()
    store = table.kernel_probe_spec()
    keys = keys_of(LANE[:4])
    clock = [0]

    def cycle():
        clock[0] += 3
        COMPILED.store_reserve(store, clock[0], keys)
        COMPILED.store_purge(store, clock[0] - 6)

    assert_retains_nothing(cycle, watched=(store, keys))
    assert table.live_counts() == table.recount()
    assert table.live_counts()["edges"] > 0


@pytest.mark.parametrize("name", sorted(TABLES))
def test_a_dropped_table_frees_its_blocks(name):
    loaded(name)  # warm: the kernel's own one-time allocations
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        table = loaded(name)
        store = table.kernel_probe_spec()
        for t in range(30, 330, 3):
            COMPILED.store_reserve(store, t, keys_of(LANE))
        held = tracemalloc.get_traced_memory()[0] - before
        del table, store
        gc.collect()
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held > 16 << 10
    assert after < 4 << 10
