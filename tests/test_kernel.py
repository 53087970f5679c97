"""Native search kernel: selection, fallback, and bit-identity.

The compiled expansion loop must be a drop-in for the pure-python core:
same :class:`SearchOutcome` (status, path steps), same
:class:`SearchStats` counters, same expansion order — across every
reservation structure, deep wait chains, the cache-aided finisher, and
the paper-scale deep-tie ordering.  Neither
kernel may keep search state between calls.  The extension is built on
the fly here; where no compiler is available the compiled half skips and
the selection/fallback tests still run.
"""

import dataclasses
import gc
import hashlib
import importlib.util
import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hyp

from repro.config import search_kernel_choice
from repro.errors import ConfigurationError
from repro.experiments.harness import run_planner
from repro.pathfinding import _kernel, st_astar
from repro.pathfinding._kernel import build, build_and_load
from repro.pathfinding._kernel.build import build_allowed
from repro.pathfinding._legacy import (LegacyConflictDetectionTable,
                                       legacy_find_path)
from repro.pathfinding.cdt import ConflictDetectionTable
from repro.pathfinding.heuristics import HeuristicField, HeuristicFieldCache
from repro.pathfinding.paths import Path
from repro.pathfinding.reservation import ReservationTable
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import (SearchRequest, SearchStats, search,
                                        search_kernel_name, set_search_kernel)
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini
from tests.conftest import (SWAP_CASES, SWAP_GOAL, assert_retains_nothing,
                            assert_rows_match_neighbours, count_kernel_calls,
                            eatp_finisher, load_swap_case)

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")


@pytest.fixture(autouse=True)
def _restore_kernel():
    previous = search_kernel_name()
    yield
    set_search_kernel(previous)


class GenericProbeCDT(ConflictDetectionTable):
    """A table outside the library: the base probe spec (``None``), so
    the python core answers it under either kernel switch."""

    kernel_probe_spec = ReservationTable.kernel_probe_spec


TABLES = {
    "cdt": lambda grid: ConflictDetectionTable(),
    "stgraph": lambda grid: SpatiotemporalGraph(grid),
    "sharded_stgraph": lambda grid: ShardedSpatiotemporalGraph(3),
    # One-cell tiles: every move changes tile, so the kernel's tile memo
    # is refetched on every probe and every reserved step.
    "cell_tiled_stgraph": lambda grid: ShardedSpatiotemporalGraph(0),
    "generic": lambda grid: GenericProbeCDT(),
}

#: The tables the native kernel probes (every one but the generic).
NATIVE_TABLES = sorted(name for name in TABLES if name != "generic")


def crossing_traffic(table, width=18, n=10):
    for i in range(n):
        row = 1 + (3 * i) % 11
        cells = [(x, row) for x in range(width)]
        table.reserve_path(Path.from_cells(cells, start_time=2 * i))


def run_on(kernel, grid, make_table, request, heuristic=None):
    """One search under an explicitly selected kernel; fresh table."""
    set_search_kernel(kernel)
    table = make_table()
    crossing_traffic(table, grid.width)
    stats = SearchStats()
    outcome = search(grid, table, request, heuristic=heuristic, stats=stats)
    return outcome, stats


def assert_same_search(out, stats, ref_out, ref_stats):
    assert out.status == ref_out.status
    if ref_out.path is None:
        assert out.path is None
    else:
        assert out.path.steps == ref_out.path.steps
    assert stats.expansions == ref_stats.expansions
    assert stats.generated == ref_stats.generated
    assert stats.peak_open == ref_stats.peak_open
    assert stats.cache_finished == ref_stats.cache_finished


def assert_bit_identical(grid, make_table, request, heuristic=None):
    """Equal searches under both switches; the compiled one reaches
    ``run`` exactly when the table has a probe spec (the python core
    answers the generic table)."""
    py_out, py_stats = run_on("python", grid, make_table, request, heuristic)
    with count_kernel_calls(COMPILED, ["run"]) as calls:
        c_out, c_stats = run_on("compiled", grid, make_table, request,
                                heuristic)
    assert_same_search(c_out, c_stats, py_out, py_stats)
    assert calls["run"] == (make_table().kernel_probe_spec() is not None)
    return py_out


# -- selection and fallback -------------------------------------------------


class TestKernelSelection:
    def test_env_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert search_kernel_choice() == "auto"

    @pytest.mark.parametrize("value", ["auto", "compiled", "python"])
    def test_env_accepts_documented_choices(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_KERNEL", value)
        assert search_kernel_choice() == value

    def test_env_rejects_unknown_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "turbo")
        with pytest.raises(ConfigurationError):
            search_kernel_choice()

    def test_set_search_kernel_rejects_unknown_value(self):
        with pytest.raises(ConfigurationError):
            set_search_kernel("turbo")

    def test_compiled_without_extension_is_an_error(self, monkeypatch):
        monkeypatch.setattr(st_astar, "_load_compiled",
                            lambda refresh=False: None)
        with pytest.raises(ConfigurationError):
            set_search_kernel("compiled")

    def test_auto_without_extension_falls_back_silently(self, monkeypatch):
        monkeypatch.setattr(st_astar, "_load_compiled",
                            lambda refresh=False: None)
        assert set_search_kernel("auto") == "python"
        assert _kernel.active is None
        outcome = search(Grid(8, 8), ConflictDetectionTable(),
                         SearchRequest((0, 0), (7, 7), 0))
        assert outcome.path is not None

    def test_build_forbidden_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BUILD", "0")
        assert not build_allowed()

    @pytest.fixture
    def foreign_binary(self, monkeypatch, tmp_path):
        """An artefact stamped for some other ``_stsearchmodule.c`` (a
        copied tree, a reverted edit) and a process that has loaded none."""
        artefact = tmp_path / build.extension_filename()
        artefact.write_bytes(
            b"\x7fELF" + hashlib.sha256(b"other source").hexdigest().encode())
        monkeypatch.setattr(build, "extension_path", lambda: str(artefact))
        monkeypatch.setattr(_kernel, "_module", None)
        monkeypatch.setattr(_kernel, "_probed", False)
        return artefact

    def test_foreign_binary_is_not_loaded_where_builds_are_off(
            self, monkeypatch, foreign_binary):
        monkeypatch.setenv("REPRO_KERNEL_BUILD", "0")
        assert build.is_stale()
        assert build_and_load() is None
        assert set_search_kernel("auto") == "python"
        with pytest.raises(ConfigurationError):
            set_search_kernel("compiled")

    def test_foreign_binary_is_rebuilt(self, monkeypatch, foreign_binary):
        def fake_cc(cmd, **_):
            define, = [arg for arg in cmd if arg.startswith("-DSTSEARCH_")]
            with open(cmd[-1], "wb") as out:
                out.write(define.encode())
            return subprocess.CompletedProcess(cmd, 0, b"", b"")

        monkeypatch.delenv("REPRO_KERNEL_BUILD", raising=False)
        monkeypatch.setattr(subprocess, "run", fake_cc)
        assert build.is_stale()
        assert build.build_extension() == str(foreign_binary)
        assert build.source_stamp().encode() in foreign_binary.read_bytes()
        assert not build.is_stale()

    @pytest.mark.parametrize("command, detail", [
        ([sys.executable, "-c", "import sys; sys.exit('cc: boom')"],
         "cc: boom"),
        (["/nonexistent/bin/cc", "-O2"], "No such file or directory"),
    ], ids=["compile-fails", "no-compiler"])
    def test_failed_build_is_a_typed_error(self, monkeypatch, capsys,
                                           command, detail):
        monkeypatch.setenv("REPRO_KERNEL_BUILD", "1")
        monkeypatch.setattr(build, "_compiler_command",
                            lambda output: list(command))
        kernel_dir = os.path.dirname(build.extension_path())

        def snapshot():
            artefact = build.extension_path()
            stat = os.stat(artefact) if os.path.exists(artefact) else None
            return (sorted(os.listdir(kernel_dir)),
                    stat and (stat.st_size, stat.st_mtime_ns))

        before = snapshot()
        with pytest.raises(ConfigurationError) as excinfo:
            build.build_extension(force=True, quiet=False)
        assert command[0] in str(excinfo.value)
        assert detail in str(excinfo.value)
        assert build.build_extension(force=True) is None
        # The CLI reports the failure and exits 0, or 1 under --check.
        spec = importlib.util.spec_from_file_location(
            "build_kernel", os.path.join(os.path.dirname(__file__), "..",
                                         "scripts", "build_kernel.py"))
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(["--force"]) == 0
        assert detail in capsys.readouterr().out
        assert script.main(["--force", "--check"]) == 1
        assert snapshot() == before

    @needs_compiled
    def test_explicit_choices_select_the_named_core(self):
        assert set_search_kernel("compiled") == "compiled"
        assert search_kernel_name() == "compiled"
        assert _kernel.active is COMPILED
        assert set_search_kernel("python") == "python"
        assert search_kernel_name() == "python"
        assert _kernel.active is None

    def test_trivial_search_runs_no_core(self, monkeypatch):
        # source == goal short-circuits before either core runs.
        def no_core(*args):
            raise AssertionError("a core ran")

        monkeypatch.setattr(st_astar, "_search_heap", no_core)
        monkeypatch.setattr(st_astar, "_search_compiled", no_core)
        outcome = search(Grid(6, 6), ConflictDetectionTable(),
                         SearchRequest((2, 2), (2, 2), 0))
        assert outcome.path.steps == ((0, 2, 2),)


# -- bit-identity across probe modes and regimes ---------------------------


@needs_compiled
class TestKernelBitIdentity:
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_every_probe_mode_matches(self, table_name):
        grid = Grid(18, 13, blocked=[(9, y) for y in range(13)
                                     if y not in (3, 10)])
        make_table = lambda: TABLES[table_name](grid)
        for source, goal in [((0, 0), (17, 12)), ((17, 0), (0, 12)),
                             ((2, 6), (16, 6))]:
            assert_bit_identical(grid, make_table,
                                 SearchRequest(source, goal, 0))

    def test_late_start_matches(self):
        grid = Grid(18, 13)
        assert_bit_identical(
            grid, ConflictDetectionTable,
            SearchRequest((0, 0), (17, 12), 5))

    def test_budget_outcome_matches(self):
        grid = Grid(18, 13)
        out = assert_bit_identical(
            grid, ConflictDetectionTable,
            SearchRequest((0, 0), (17, 12), 0, max_expansions=10))
        assert out.status == st_astar.SEARCH_BUDGET

    def test_exhausted_outcome_matches(self):
        # Source walled in; waiting in place is reserved out too.
        grid = Grid(10, 10, blocked=[(0, 1), (1, 0), (1, 1)])

        def boxed_table():
            table = ConflictDetectionTable()
            table.reserve_path(Path.from_cells([(0, 0)] * 40, start_time=1))
            return table

        set_search_kernel("python")
        py_stats = SearchStats()
        py = search(grid, boxed_table(), SearchRequest((0, 0), (9, 9), 0),
                    stats=py_stats)
        set_search_kernel("compiled")
        c_stats = SearchStats()
        comp = search(grid, boxed_table(), SearchRequest((0, 0), (9, 9), 0),
                      stats=c_stats)
        assert py.status == st_astar.SEARCH_EXHAUSTED
        assert_same_search(comp, c_stats, py, py_stats)

    def test_deep_wait_chain_matches(self):
        # A single doorway reserved for 222 ticks: the plan waits beside
        # it, one time layer per tick.
        grid = Grid(12, 7, blocked=[(6, y) for y in range(7) if y != 3])

        def choked():
            table = ConflictDetectionTable()
            table.reserve_path(Path.from_cells([(6, 3)] * 222, start_time=0))
            return table

        set_search_kernel("python")
        py_stats = SearchStats()
        py = search(grid, choked(), SearchRequest((0, 3), (11, 3), 0),
                    stats=py_stats)
        set_search_kernel("compiled")
        c_stats = SearchStats()
        comp = search(grid, choked(), SearchRequest((0, 3), (11, 3), 0),
                      stats=c_stats)
        assert py.status == st_astar.SEARCH_COMPLETE
        assert_same_search(comp, c_stats, py, py_stats)

    def test_exact_field_heuristic_matches(self):
        grid = Grid(18, 13, blocked=[(9, y) for y in range(13)
                                     if y not in (3, 10)])
        cache = HeuristicFieldCache(grid)
        assert_bit_identical(grid, ConflictDetectionTable,
                             SearchRequest((0, 0), (17, 12), 0),
                             heuristic=cache.field((17, 12)))

    def test_arbitrary_callable_heuristic_stays_python(self):
        # A raw callable is outside the kernel's contract: the compiled
        # selection must decline and fall through to the python core.
        set_search_kernel("compiled")
        grid = Grid(12, 12)
        with count_kernel_calls(COMPILED, ["run"]) as calls:
            outcome = search(grid, ConflictDetectionTable(),
                             SearchRequest((0, 0), (11, 11), 0),
                             heuristic=lambda cell: 0)
        assert outcome.path is not None
        assert calls["run"] == 0

    def test_cache_finisher_matches(self):
        grid = Grid(18, 13)
        goal = (17, 12)

        def run(kernel):
            set_search_kernel(kernel)
            table = ConflictDetectionTable()
            crossing_traffic(table, grid.width)
            finisher, cache = eatp_finisher(grid, table, goal, 6)
            stats = SearchStats()
            outcome = search(grid, table,
                             SearchRequest((0, 0), goal, 0,
                                           finisher=finisher,
                                           finisher_trigger=6),
                             stats=stats)
            return outcome, stats, cache.live_counts()

        py, py_stats, py_cache = run("python")
        comp, c_stats, c_cache = run("compiled")
        assert comp.status == py.status == st_astar.SEARCH_COMPLETE
        assert comp.path.steps == py.path.steps
        assert py_stats.cache_finished and c_stats.cache_finished
        assert c_stats.expansions == py_stats.expansions
        assert c_cache == py_cache

    def test_deep_tie_paper_scale_matches(self):
        # 129 * 128 = 16512 cells >= PAPER_SCALE_MIN_CELLS: the open set
        # switches to the paper-scale (f, -g, tie) ordering.
        grid = Grid(129, 128)
        assert grid.paper_scale

        def big_traffic():
            table = ConflictDetectionTable()
            for i in range(12):
                row = 10 + 9 * i
                cells = [(x, row) for x in range(0, 100)]
                table.reserve_path(Path.from_cells(cells, start_time=3 * i))
            return table

        for source, goal in [((0, 0), (120, 119)), ((128, 0), (0, 127)),
                             ((5, 60), (124, 60))]:
            set_search_kernel("python")
            py_stats = SearchStats()
            py = search(grid, big_traffic(),
                        SearchRequest(source, goal, 0), stats=py_stats)
            set_search_kernel("compiled")
            c_stats = SearchStats()
            comp = search(grid, big_traffic(),
                          SearchRequest(source, goal, 0), stats=c_stats)
            assert comp.status == py.status
            assert comp.path.steps == py.path.steps
            assert c_stats.expansions == py_stats.expansions
            assert c_stats.peak_open == py_stats.peak_open


# -- a search owns nothing outside its own call -----------------------------


KERNELS = ["python", pytest.param("compiled", marks=needs_compiled)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_from_inside_a_finisher(kernel):
    # The finisher fires mid-expansion of the outer search and starts a
    # search of its own on the same grid and table.  Nesting must change
    # neither: both equal the python core's un-nested answers.
    grid = Grid(18, 13, blocked=[(9, y) for y in range(13)
                                 if y not in (3, 10)])
    table = ConflictDetectionTable()
    crossing_traffic(table, grid.width)
    outer_request = SearchRequest((0, 0), (17, 12), 0)
    inner_request = SearchRequest((17, 0), (0, 12), 4)

    set_search_kernel("python")
    ref_outer_stats, ref_inner_stats = SearchStats(), SearchStats()
    ref_outer = search(grid, table, outer_request, stats=ref_outer_stats)
    ref_inner = search(grid, table, inner_request, stats=ref_inner_stats)

    nested = []

    def searching_finisher(cell, t):
        stats = SearchStats()
        nested.append((search(grid, table, inner_request, stats=stats), stats))
        return None  # decline: the outer search carries on to the goal

    set_search_kernel(kernel)
    outer_stats = SearchStats()
    outer = search(grid, table,
                   dataclasses.replace(outer_request,
                                       finisher=searching_finisher,
                                       finisher_trigger=6),
                   stats=outer_stats)
    assert nested
    for inner, inner_stats in nested:
        assert_same_search(inner, inner_stats, ref_inner, ref_inner_stats)
    assert_same_search(outer, outer_stats, ref_outer, ref_outer_stats)


def mutating_search(kernel, make_table, mutate, on_call=3):
    """Search the 24x6 floor under a finisher that declines every call
    and, on its ``on_call``-th, runs ``mutate(table)``."""
    set_search_kernel(kernel)
    grid = Grid(24, 6)
    table = make_table(grid)
    table.reserve_path(Path.from_cells([(3, 2)], start_time=0))
    calls = []

    def finisher(cell, t):
        calls.append((cell, t))
        if len(calls) == on_call:
            mutate(table)
        return None

    stats = SearchStats()
    outcome = search(grid, table,
                     SearchRequest((0, 2), (20, 2), 0, finisher=finisher,
                                   finisher_trigger=30), stats=stats)
    return outcome, stats, calls


@needs_compiled
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_finisher_that_purges_and_reserves(table_name):
    # The purge frees containers the probe may have borrowed before the
    # call, and the dict allocated next can take a freed one's address: a
    # kernel still holding what it probed before the call reads the
    # newcomer, finds (5, 2) free and plans straight through the camp.
    # Whatever the probe borrowed from the table has to go when python
    # has run.
    recycled = []

    def mutate(table):
        table.purge_before(1)
        recycled.append({})
        table.reserve_path(Path.from_cells([(5, 2)] * 60, start_time=2))

    py, py_stats, py_calls = mutating_search("python", TABLES[table_name],
                                             mutate)
    comp, c_stats, c_calls = mutating_search("compiled", TABLES[table_name],
                                             mutate)
    assert py.ok and (5, 5, 2) not in py.path.steps
    assert py_stats.expansions > 21  # the straight line, had it been free
    assert c_calls == py_calls
    assert_same_search(comp, c_stats, py, py_stats)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_search_and_reserve_from_inside_a_finisher(kernel, table_name):
    # The finisher plans a second robot across the outer search's row on
    # the same table and reserves the leg: the outer search goes on
    # against the table as it now is, under either kernel alike.
    inner = []

    def mutate(table):
        found = search(Grid(24, 6), table, SearchRequest((8, 0), (8, 5), 4))
        inner.append(found.path.steps)
        table.reserve_path(found.path)
        table.reserve_path(Path.from_cells([(12, 2)] * 30, start_time=6))

    ref, ref_stats, ref_calls = mutating_search("python", TABLES[table_name],
                                                mutate, on_call=2)
    out, stats, calls = mutating_search(kernel, TABLES[table_name], mutate,
                                        on_call=2)
    assert len(inner) == 2 and inner[0] == inner[1]
    assert calls == ref_calls
    assert_same_search(out, stats, ref, ref_stats)
    assert all(step[1:] != (12, 2) or step[0] < 6 for step in out.path.steps)


@pytest.mark.parametrize("kernel", KERNELS)
def test_search_retains_nothing(kernel):
    # Out-waiting a doorway camped for 150 ticks on the 64x40 floor: from
    # t=0 a search touches ~150 time layers, from t=100 about 50.  The
    # first search on a grid builds what the grid keeps for the next one
    # (under the python kernel, the adjacency rows it reads; the native
    # workspace, unless the search outgrew what a grid keeps); a warm
    # search leaves memory where it was, and dropping the grid gives
    # back what it kept.
    set_search_kernel(kernel)
    compiled = kernel == "compiled"
    deep = SearchRequest((0, 20), (63, 20), 0)
    late = SearchRequest((0, 20), (63, 20), 100)

    def traced():
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        start = traced()
        grid = Grid(64, 40, blocked=[(32, y) for y in range(40) if y != 20])
        table = ConflictDetectionTable()
        table.reserve_path(Path.from_cells([(32, 20)] * 150, start_time=0))
        cold = traced()
        tracemalloc.reset_peak()
        assert search(grid, table, deep).path.duration > 150
        # the deep search did need real memory, and the grid keeps none
        # of it but the prepared floor
        assert tracemalloc.get_traced_memory()[1] - cold > 1 << 20
        before = traced()
        assert not compiled or before - cold < 256 << 10
        assert search(grid, table, deep).ok
        assert traced() - before < 64 << 10
        assert search(grid, table, late).ok
        kept = traced()
        # a smaller search's workspace stays with the grid
        assert not compiled or kept - before > 128 << 10
        assert search(grid, table, late).ok
        assert traced() - kept < 64 << 10
        del grid, table
        assert traced() - start < 64 << 10
    finally:
        tracemalloc.stop()


@needs_compiled
@pytest.mark.parametrize("deep", [0, 1])
def test_nested_run_equals_the_run_alone(deep):
    # The finisher runs a second search on the same grid and store while
    # the outer one holds the grid's workspace: the nested run borrows
    # another, and each answers as it does alone.
    grid = Grid(18, 13, blocked=[(9, y) for y in range(13)
                                 if y not in (3, 10)])
    table = ConflictDetectionTable()
    crossing_traffic(table, grid.width)

    def args(source, goal, start, finisher=None):
        return (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(), 1,
                goal, grid.cell_index(source), grid.cell_index(goal), start,
                200_000, finisher, 6, deep, 0, 0)

    inner = args((17, 0), (0, 12), 4)
    alone, outer_alone = COMPILED.run(*inner), COMPILED.run(
        *args((0, 0), (17, 12), 0))
    nested = []

    def finisher(cell, t):
        nested.append(COMPILED.run(*inner))
        return None

    assert COMPILED.run(*args((0, 0), (17, 12), 0, finisher)) == outer_alone
    assert nested and all(answer == alone for answer in nested)


def _boxed_run_args(grid, table, source, h_mode=1, h_arg=(9, 9),
                    budget=200_000, finisher=None, deep=0):
    """``run``'s arguments on the boxed 10x10 floor, goal (9, 9)."""
    return (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(), h_mode,
            h_arg, grid.cell_index(source), grid.cell_index((9, 9)), 0,
            budget, finisher, 4, deep, 0, 0)


#: Manhattan to (9, 9) on the 10x10 floor (cell x * 10 + y) with a cliff
#: at (3, 2): not consistent.
_CLIFF = array("i", (0 if (x, y) == (3, 2) else 18 - x - y
                     for x in range(10) for y in range(10)))


def _raise(exc):
    raise exc


#: One call per way ``run`` ends, on the boxed floor.
EXITS = {
    "complete": (dict(source=(2, 2)), 0),
    "budget": (dict(source=(2, 2), budget=5), 1),
    "exhausted": (dict(source=(0, 0)), 2),
    "finisher": (dict(source=(2, 2), finisher=lambda cell, t: [(t,) + cell]),
                 4),
    "finisher error": (dict(source=(2, 2), finisher=lambda cell, t: _raise(
        RuntimeError("finisher failed"))), RuntimeError),
    "interrupt": (dict(source=(2, 2), finisher=lambda cell, t: _raise(
        KeyboardInterrupt())), KeyboardInterrupt),
    "inconsistent field": (dict(source=(2, 2), h_mode=2, h_arg=_CLIFF),
                           AssertionError),
}


@needs_compiled
@pytest.mark.parametrize("deep", [0, 1])
@pytest.mark.parametrize("exit_name", sorted(EXITS))
def test_every_exit_leaves_the_workspace_reusable(exit_name, deep):
    # A deep search fills the workspace, the call under test ends its
    # way (warm, it holds on to nothing: the workspace went back to the
    # grid), and the next searches of either order answer as they do on
    # a fresh grid.
    def floor():
        grid = Grid(10, 10, blocked=[(0, 1), (1, 0), (1, 1)])
        table = ConflictDetectionTable()
        table.reserve_path(Path.from_cells([(0, 0)] * 40, start_time=1))
        crossing_traffic(table, 10, n=4)
        return grid, table

    probes = [dict(source=(2, 2), deep=d) for d in (1, 0)] + [
        dict(source=(9, 0), deep=d) for d in (0, 1)]
    grid, table = floor()
    assert COMPILED.run(*_boxed_run_args(grid, table, (2, 2),
                                         deep=1 - deep))[0] == 0
    kwargs, ends = EXITS[exit_name]
    call = _boxed_run_args(grid, table, deep=deep, **kwargs)

    def end():
        if isinstance(ends, int):
            assert COMPILED.run(*call)[0] == ends
        else:
            with pytest.raises(ends):
                COMPILED.run(*call)

    end()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        end()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 4 << 10
    got = [COMPILED.run(*_boxed_run_args(grid, table, **probe))
           for probe in probes]
    fresh_grid, fresh_table = floor()
    assert got == [COMPILED.run(*_boxed_run_args(fresh_grid, fresh_table,
                                                 **probe))
                   for probe in probes]


@needs_compiled
class TestRunHandsBackOneBuffer:
    """``run`` returns the leg as one checked ``array('q')`` of keys."""

    def problem(self, width=18, finisher=None, trigger=0, budget=200_000,
                table_name="cdt"):
        set_search_kernel("compiled")
        grid = Grid(width, 12)
        table = TABLES[table_name](grid)
        crossing_traffic(table, width)
        goal = (width - 1, 9)
        args = (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(),
                1, goal, grid.cell_index((0, 2)), grid.cell_index(goal), 3,
                budget, finisher, trigger, 0, 0, 0)
        return grid, table, goal, args

    def test_kernel_made_path_equals_the_tuple_made_one(self):
        grid, table, goal, args = self.problem()
        status, keys = COMPILED.run(*args)[:2]
        assert status == 0
        assert type(keys) is array and keys.typecode == "q"
        set_search_kernel("compiled")
        made = search(grid, table, SearchRequest((0, 2), goal, 3)).path
        assert made.keys == keys and made.start_time == 3
        set_search_kernel("python")
        walked = search(grid, table, SearchRequest((0, 2), goal, 3)).path
        assert made == walked and hash(made) == hash(walked)
        assert made.steps == walked.steps
        assert made == Path(walked.steps)
        assert table.audit_path(made)

    def test_a_400_step_leg_is_eight_bytes_a_step(self):
        grid = Grid(402, 3)
        set_search_kernel("compiled")
        request = SearchRequest((0, 1), (400, 1), 0)
        assert search(grid, ConflictDetectionTable(), request).ok  # warm
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            path = search(grid, ConflictDetectionTable(), request).path
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(path) == 401
        assert held / len(path) < 10  # ~150 as tuples

    def test_a_warm_run_allocates_only_its_leg(self):
        # The grid's workspace is warm: the records, the seen-map and the
        # open lists are reused, and the leg is built in place.
        __, table, __, args = self.problem()
        COMPILED.run(*args)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = COMPILED.run(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result[0] == 0
        assert peak - before < sys.getsizeof(result[1]) + 1024

    @pytest.mark.parametrize("status, finisher, trigger, budget", [
        (0, None, 0, 200_000),                           # complete
        (1, None, 0, 5),                                 # budget
        (4, lambda cell, t: [(t,) + cell], 4, 200_000),  # finisher tail
        (0, lambda cell, t: None, 4, 200_000),           # finisher declines
    ])
    @pytest.mark.parametrize("table_name", NATIVE_TABLES)
    def test_every_status_retains_nothing(self, status, finisher, trigger,
                                          budget, table_name):
        # every table's store: whatever the search allocates goes back
        # however the call ends
        __, table, __, args = self.problem(6, finisher, trigger, budget,
                                           table_name)
        assert COMPILED.run(*args)[0] == status
        watched = (args[0], args[1]) + (
            () if finisher is None else (finisher,))
        assert_retains_nothing(lambda: COMPILED.run(*args), watched,
                               calls=2_000)


# -- swaps are asked about only where the wait was refused ------------------


def swap_case_search(kernel, table_name, case):
    set_search_kernel(kernel)
    grid = Grid(7, 3)
    table = load_swap_case(case, TABLES[table_name](grid))
    stats = SearchStats()
    outcome = search(grid, table,
                     SearchRequest(case["source"], SWAP_GOAL, case["start"]),
                     stats=stats)
    return outcome, stats


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("case_name", sorted(SWAP_CASES))
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_gated_swap_probes_match_the_ungated_seed(table_name, case_name,
                                                  kernel):
    # The oracle asks about every swap: the seed's search over the seed's
    # table, whose move_allowed probes the edge whatever the vertices say.
    case = SWAP_CASES[case_name]
    old_table = load_swap_case(case, LegacyConflictDetectionTable())
    ref_stats = SearchStats()
    ref = legacy_find_path(Grid(7, 3), old_table, case["source"], SWAP_GOAL,
                           case["start"], stats=ref_stats)
    out, stats = swap_case_search(kernel, table_name, case)
    assert out.path.steps == ref.steps
    assert stats.expansions == ref_stats.expansions
    assert stats.generated == ref_stats.generated
    assert stats.peak_open == ref_stats.peak_open
    t, a, b = case["at"]
    swapped = (t,) + a in out.path.steps and (t + 1,) + b in out.path.steps
    assert not (case["swap"] and swapped)
    if kernel == "compiled":
        py, py_stats = swap_case_search("python", table_name, case)
        assert_same_search(out, stats, py, py_stats)


@needs_compiled
class TestInconsistentFieldNeverPlans:
    """The bucket queue needs h to fall by at most one a step; a field
    that breaks that is refused where it shows, never searched on."""

    def run(self, field, deep):
        grid = Grid(9, 1)
        return COMPILED.run(
            grid.kernel_capsule(COMPILED), COMPILED.store_new(None, -1, 0, 0),
            2, array("i", field), 0, 8, 0, 200_000, None, 0, deep, 0, 0)

    @pytest.mark.parametrize("deep", [0, 1])
    def test_consistent_list_field_is_served(self, deep):
        status, keys = self.run(list(range(8, -1, -1)), deep)[:2]
        assert status == 0 and len(keys) == 9

    @pytest.mark.parametrize("deep", [0, 1])
    @pytest.mark.parametrize("field", [
        [8, 7, 6, 2, 4, 3, 2, 1, 0],    # a cliff behind the bucket cursor
        [8, 0, 6, 5, 4, 3, 2, 1, 0],    # f below the source's: index < 0
        [8, 7, -1, 5, 4, 3, 2, 1, 0],   # negative h
        [-3, 7, 6, 5, 4, 3, 2, 1, 0],   # negative at the source
    ])
    def test_inconsistent_field_raises(self, field, deep):
        with pytest.raises(AssertionError, match="not consistent"):
            self.run(field, deep)


#: The descending field of ``Grid(9, 1)`` toward its last cell, as the
#: buffers ``run`` and ``tier0_leg`` must refuse: the right values under
#: another item type, no item type at all, or the right items laid out
#: in two dimensions or with a stride.
_LINE = list(range(8, -1, -1))
BAD_H_BUFFERS = {
    "float32": array("f", _LINE),
    "uint32": array("I", _LINE),
    "bytes": array("i", _LINE).tobytes(),
    "two-dimensional": memoryview(array("i", _LINE)).cast("B").cast(
        "i", (3, 3)),
    "strided": memoryview(array("i", [h for h in _LINE for __ in "ab"]))[::2],
}


@needs_compiled
class TestHFieldBuffer:
    """``run`` and ``tier0_leg`` read an h-field one way: h_mode 1 or 2,
    and for 2 a contiguous one-dimensional buffer of n_cells int32."""

    def call(self, entry, h_mode, h_arg):
        grid = Grid(9, 1)
        head = (grid.kernel_capsule(COMPILED),
                COMPILED.store_new(None, -1, 0, 0))
        if entry == "run":
            return COMPILED.run(*head, h_mode, h_arg, 0, 8, 0, 200_000, None,
                                0, 0, 0, 0)[:2]
        return COMPILED.tier0_leg(*head, h_mode, h_arg, 0, 8, 0, 0, 0, 0)

    @pytest.mark.parametrize("entry", ["run", "tier0_leg"])
    def test_both_modes_serve_the_reachable_goal(self, entry):
        by_buffer = self.call(entry, 2, array("i", _LINE))
        by_manhattan = self.call(entry, 1, (8, 0))
        assert by_buffer[0] == by_manhattan[0] == (0 if entry == "run" else 1)
        assert by_buffer[1] == by_manhattan[1] and len(by_buffer[1]) == 9

    @pytest.mark.parametrize("name", sorted(BAD_H_BUFFERS))
    @pytest.mark.parametrize("entry", ["run", "tier0_leg"])
    def test_foreign_buffer_is_refused(self, entry, name):
        with pytest.raises(TypeError, match="int32"):
            self.call(entry, 2, BAD_H_BUFFERS[name])

    @pytest.mark.parametrize("h_mode", [0, 3, -1])
    @pytest.mark.parametrize("entry", ["run", "tier0_leg"])
    def test_unknown_mode_is_refused(self, entry, h_mode):
        with pytest.raises(ValueError, match="h_mode"):
            self.call(entry, h_mode, array("i", _LINE))


# -- randomized property ----------------------------------------------------


def _random_problem(seed):
    rng = random.Random(seed)
    width, height = rng.randrange(8, 22), rng.randrange(8, 18)
    blocked = set()
    for __ in range(rng.randrange(0, (width * height) // 6)):
        blocked.add((rng.randrange(width), rng.randrange(height)))
    free = [(x, y) for x in range(width) for y in range(height)
            if (x, y) not in blocked]
    source, goal = rng.sample(free, 2)
    grid = Grid(width, height, blocked=sorted(blocked))
    paths = []
    for __ in range(rng.randrange(0, 14)):
        x, y = rng.choice(free)
        cells = [(x, y)]
        for __ in range(rng.randrange(2, 16)):
            moves = list(grid.neighbours(cells[-1])) + [cells[-1]]
            cells.append(moves[rng.randrange(len(moves))])
        paths.append(Path.from_cells(cells, start_time=rng.randrange(20)))
    budget = rng.choice([200_000, 200_000, rng.randrange(5, 400)])
    request = SearchRequest(source, goal, rng.randrange(8),
                            max_expansions=budget)
    table_factory = rng.choice(sorted(TABLES))
    # Both field kinds the kernel reads: the default Manhattan field and
    # the exact BFS field, on obstructed floors alike.
    heuristic = rng.choice([None, HeuristicField(grid, goal)])
    return grid, paths, request, table_factory, heuristic


@needs_compiled
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=hyp.integers(min_value=0, max_value=10 ** 9))
def test_property_compiled_matches_python(seed):
    grid, paths, request, table_factory, heuristic = _random_problem(seed)

    def run(kernel):
        set_search_kernel(kernel)
        table = TABLES[table_factory](grid)
        for path in paths:
            table.reserve_path(path)
        stats = SearchStats()
        return search(grid, table, request, heuristic=heuristic,
                      stats=stats), stats

    try:
        comp, c_stats = run("compiled")
        # The compiled core reads the capsule: no python row exists yet
        # (the python core answers the generic table), and the rows the
        # python core then builds are the contract's.
        assert not grid.adjacency or table_factory == "generic"
        py, py_stats = run("python")
    finally:
        set_search_kernel("auto")
    assert_rows_match_neighbours(grid)
    assert comp.status == py.status
    if py.path is None:
        assert comp.path is None
    else:
        assert comp.path.steps == py.path.steps
    assert c_stats.expansions == py_stats.expansions
    assert c_stats.generated == py_stats.generated
    assert c_stats.peak_open == py_stats.peak_open


# -- planner integration ----------------------------------------------------


#: The native entry points a planning run calls (``prepare_grid`` aside).
RUN_ENTRY_POINTS = ("run", "store_reserve", "store_purge", "bfs_fill",
                    "tier0_leg")


@needs_compiled
def test_planner_stats_count_kernel_usage():
    """``descents_compiled / descents_python`` (what the bench's tier-0
    hit ratio sums) count every tier-0 leg under the core the switch
    selects, and the two runs agree."""
    from repro.planners import PLANNERS
    from repro.sim.engine import Simulation

    counters, makespans = {}, {}
    for kernel in ("compiled", "python"):
        set_search_kernel(kernel)
        state, items = make_mini(n_items=12).build()
        planner = PLANNERS["NTP"](state)
        try:
            makespans[kernel] = Simulation(state, planner,
                                           items).run().metrics.makespan
        finally:
            planner.close()
        counters[kernel] = (planner.stats.descents_compiled,
                            planner.stats.descents_python)
    assert counters["compiled"][0] > 0
    assert counters["compiled"][1] == 0
    assert counters["python"] == (0, counters["compiled"][0])
    assert makespans["compiled"] == makespans["python"]


@needs_compiled
@pytest.mark.parametrize("planner", ["NTP", "EATP"])
def test_one_switch_routes_every_plane(planner):
    """Under the compiled switch a mini run reaches every native entry
    point a run uses — search, insertion, update, field flood, tier 0 —
    under the python switch none, and the two runs are equal."""
    reached, views = {}, {}
    for kernel in ("compiled", "python"):
        set_search_kernel(kernel)
        with count_kernel_calls(COMPILED, RUN_ENTRY_POINTS) as calls:
            result = run_planner(make_mini(n_items=40), planner)
        reached[kernel] = {name for name in RUN_ENTRY_POINTS if calls[name]}
        views[kernel] = deterministic_view(result_to_dict(result))
    assert reached == {"compiled": set(RUN_ENTRY_POINTS), "python": set()}
    assert views["compiled"] == views["python"]
