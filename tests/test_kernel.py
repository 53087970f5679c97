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

import ctypes
import dataclasses
import gc
import hashlib
import importlib.util
import itertools
import operator
import os
import random
import signal
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
from repro.pathfinding.paths import Path, packed_path
from repro.pathfinding.spatiotemporal_graph import (ShardedSpatiotemporalGraph,
                                                    SpatiotemporalGraph)
from repro.pathfinding.st_astar import (SearchRequest, SearchStats, search,
                                        search_kernel_name, set_search_kernel)
from repro.sim.serialize import deterministic_view, result_to_dict
from repro.warehouse.grid import Grid
from repro.workloads.datasets import make_mini
from tests.conftest import (SWAP_CASES, SWAP_GOAL, assert_retains_nothing,
                            assert_rows_match_neighbours, count_kernel_calls,
                            load_swap_case)

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(
    COMPILED is None,
    reason="native kernel unavailable (no compiler or REPRO_KERNEL_BUILD=0)")


@pytest.fixture(autouse=True)
def _restore_kernel():
    previous = search_kernel_name()
    yield
    set_search_kernel(previous)


KERNELS = ["python", pytest.param("compiled", marks=needs_compiled)]


TABLES = {
    "cdt": lambda grid: ConflictDetectionTable(),
    "stgraph": lambda grid: SpatiotemporalGraph(grid),
    "sharded_stgraph": lambda grid: ShardedSpatiotemporalGraph(3),
    # One-cell tiles: every move changes tile, so the kernel's tile memo
    # is refetched on every probe and every reserved step.
    "cell_tiled_stgraph": lambda grid: ShardedSpatiotemporalGraph(0),
}


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
    assert list(out.finisher_starts) == list(ref_out.finisher_starts)
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
    ``run`` once."""
    py_out, py_stats = run_on("python", grid, make_table, request, heuristic)
    with count_kernel_calls(COMPILED, ["run"]) as calls:
        c_out, c_stats = run_on("compiled", grid, make_table, request,
                                heuristic)
    assert_same_search(c_out, c_stats, py_out, py_stats)
    assert calls["run"] == 1
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


# -- refused inputs ----------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
class TestSearchRefuses:
    """Only the library's tables and fields reach either core."""

    def test_callable_heuristic(self, kernel):
        # A raw callable promises no consistency, which the bucket queue
        # needs: a typed error under either switch, and no python core
        # answers it instead.
        set_search_kernel(kernel)
        grid = Grid(12, 12)
        with count_kernel_calls(COMPILED, ["run"]) as calls:
            with pytest.raises(TypeError, match="HeuristicField"):
                search(grid, ConflictDetectionTable(),
                       SearchRequest((0, 0), (11, 11), 0),
                       heuristic=lambda cell: 0)
        assert calls["run"] == 0

    def test_foreign_table(self, kernel):
        # A table that is not the library's: a typed error under either
        # switch, and no core searches it.
        set_search_kernel(kernel)
        table = LegacyConflictDetectionTable()
        crossing_traffic(table, 12)
        with count_kernel_calls(COMPILED, ["run"]) as calls:
            with pytest.raises(TypeError, match="LegacyConflictDetection"):
                search(Grid(12, 12), table,
                       SearchRequest((0, 0), (11, 11), 0))
        assert calls["run"] == 0


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

    def test_cache_finisher_matches(self):
        grid = Grid(18, 13)
        goal = (17, 12)
        request = SearchRequest((0, 0), goal, 0, finisher_trigger=6)
        py = assert_bit_identical(grid, lambda: ConflictDetectionTable(),
                                  request)
        assert py.status == st_astar.SEARCH_COMPLETE
        assert py.finisher_starts

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


needs_sigusr1 = pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                                   reason="no SIGUSR1")


def run_under_signal(handler, args):
    """``COMPILED.run(*args)`` with ``handler`` on SIGUSR1 and the signal
    pending: the signal is raised from C and ``run`` called from C, so no
    python runs in between and the handler waits for ``run``'s periodic
    signal check (every 16384 pops).  A handler that only gets to run
    once ``run`` has returned fails the call."""
    raise_signal = getattr(ctypes.CDLL(None), "raise")
    raise_signal.argtypes, raise_signal.restype = (ctypes.c_int,), ctypes.c_int
    returned = []

    def inside_run(signum, frame):
        assert not returned, "the handler ran after run returned"
        handler(signum, frame)

    previous = signal.signal(signal.SIGUSR1, inside_run)
    try:
        __, got, __ = itertools.starmap(operator.call, [
            (raise_signal, int(signal.SIGUSR1)), (COMPILED.run, *args),
            (returned.append, True)])
    finally:
        signal.signal(signal.SIGUSR1, previous)
    return got


@needs_compiled
@needs_sigusr1
@pytest.mark.parametrize("deep", [0, 1])
def test_nested_run_equals_the_run_alone(deep):
    # A python signal handler is the one python that runs inside ``run``
    # (at its periodic signal check, every 16384 pops).  Here it runs a
    # second search on the same grid and store while the outer one holds
    # the grid's workspace — the nested run borrows another and answers
    # as it does alone — then reserves the doorway's next 30 ticks, which
    # the outer search, going on, waits out.
    set_search_kernel("compiled")  # the table hands ``run`` its store
    grid = Grid(40, 20, blocked=[(20, y) for y in range(20) if y != 10])
    table = ConflictDetectionTable()
    table.reserve_path(Path.from_cells([(20, 10)] * 120, start_time=0))

    def args(source, goal, start):
        return (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(), 1,
                goal, grid.cell_index(source), grid.cell_index(goal), start,
                200_000, 0, deep, 0, 0)

    outer, inner = args((0, 10), (39, 10), 0), args((39, 0), (0, 19), 4)
    alone, outer_alone = COMPILED.run(*inner), COMPILED.run(*outer)
    assert outer_alone[3] > 1 << 14  # the outer run checks for signals
    nested = []

    def handler(signum, frame):
        nested.append(COMPILED.run(*inner))
        table.reserve_path(Path.from_cells([(20, 10)] * 30, start_time=120))

    got = run_under_signal(handler, outer)
    assert nested == [alone]
    assert len(got[1]) == len(outer_alone[1]) + 30
    assert table.audit_path(packed_path(0, got[1]))


@needs_compiled
@needs_sigusr1
@pytest.mark.parametrize("deep", [0, 1])
@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_handler_that_purges_and_reserves(table_name, deep):
    # A signal handler inside ``run`` purges the store (its key arrays go
    # back and python reuses the memory), reserves far enough ahead to
    # widen the store's tick ring (the ring is reallocated), and camps
    # the doorway 30 ticks more: whatever ``run`` read from the store
    # before the check has to go, and the outer search goes on against
    # the store as it now is, under every table alike.
    set_search_kernel("compiled")  # the tables hand ``run`` their stores
    grid = Grid(40, 20, blocked=[(20, y) for y in range(20) if y != 10])
    table = TABLES[table_name](grid)
    table.reserve_path(Path.from_cells([(20, 10)] * 120, start_time=0))
    table.reserve_path(Path.from_cells([(30, 0)], start_time=0))
    args = (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(), 1,
            (39, 10), grid.cell_index((0, 10)), grid.cell_index((39, 10)), 0,
            200_000, 0, deep, 0, 0)
    alone = COMPILED.run(*args)
    assert alone[3] > 1 << 14  # the run checks for signals
    recycled = []

    def handler(signum, frame):
        table.purge_before(1)
        recycled.extend(bytearray(64) for __ in range(256))
        table.reserve_path(Path.from_cells([(39, 19)], start_time=1 << 12))
        table.reserve_path(Path.from_cells([(20, 10)] * 30, start_time=120))

    got = run_under_signal(handler, args)
    assert recycled and got[0] == alone[0] == 0
    assert len(got[1]) == len(alone[1]) + 30
    assert table.audit_path(packed_path(0, got[1]))
    assert table.recount() == table.live_counts()


def _boxed_run_args(grid, table, source, h_mode=1, h_arg=(9, 9),
                    budget=200_000, trigger=0, deep=0):
    """``run``'s arguments on the boxed 10x10 floor, goal (9, 9)."""
    return (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(), h_mode,
            h_arg, grid.cell_index(source), grid.cell_index((9, 9)), 0,
            budget, trigger, deep, 0, 0)


#: Manhattan to (9, 9) on the 10x10 floor (cell x * 10 + y) with a cliff
#: at (3, 2): not consistent.
_CLIFF = array("i", (0 if (x, y) == (3, 2) else 18 - x - y
                     for x in range(10) for y in range(10)))


def _no_descent(width, height, goal):
    """Manhattan to ``goal`` but 1 on the goal itself: consistent enough
    to search, with no cell one lower than the goal's neighbours, so
    every finisher walk declines and the search finds the goal itself."""
    gx, gy = goal
    return array("i", (max(abs(x - gx) + abs(y - gy), 1)
                       for x in range(width) for y in range(height)))


#: One call per way ``run`` ends, on the boxed floor.
EXITS = {
    "complete": (dict(source=(2, 2)), 0),
    "budget": (dict(source=(2, 2), budget=5), 1),
    "exhausted": (dict(source=(0, 0)), 2),
    "finisher": (dict(source=(2, 2), trigger=4), 4),
    "declined walk": (dict(source=(2, 2), trigger=4, h_mode=2,
                           h_arg=_no_descent(10, 10, (9, 9))), 0),
    "inconsistent field": (dict(source=(2, 2), h_mode=2, h_arg=_CLIFF),
                           AssertionError),
    # A signal handler raising at ``run``'s periodic check: the call
    # waits out a goal camped for 400 ticks, past 16384 pops.
    "interrupt": (dict(source=(2, 2), raises=KeyboardInterrupt),
                  KeyboardInterrupt),
    "handler error": (dict(source=(2, 2), raises=RuntimeError),
                      RuntimeError),
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
    set_search_kernel("compiled")  # the tables hand ``run`` their stores
    grid, table = floor()
    assert COMPILED.run(*_boxed_run_args(grid, table, (2, 2),
                                         deep=1 - deep))[0] == 0
    kwargs, ends = EXITS[exit_name]
    kwargs = dict(kwargs)
    raises = kwargs.pop("raises", None)
    call_table = table
    if raises is not None:
        if not hasattr(signal, "SIGUSR1"):
            pytest.skip("no SIGUSR1")
        call_table = ConflictDetectionTable()
        call_table.reserve_path(Path.from_cells([(9, 9)] * 400, start_time=0))
    call = _boxed_run_args(grid, call_table, deep=deep, **kwargs)

    def handler(signum, frame):
        raise raises()

    def end():
        if isinstance(ends, int):
            assert COMPILED.run(*call)[0] == ends
        else:
            with pytest.raises(ends):
                if raises is None:
                    COMPILED.run(*call)
                else:
                    run_under_signal(handler, call)

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
@pytest.mark.parametrize("h_mode", [1, 2])
@pytest.mark.parametrize("bad", [-1, 100], ids=["negative", "n_cells"])
@pytest.mark.parametrize("end", ["source", "goal"])
@pytest.mark.parametrize("entry", ["run", "tier0_leg"])
def test_entry_points_refuse_a_cell_off_the_grid(entry, end, bad, h_mode):
    # A source or goal index off the 10x10 floor is refused before it
    # indexes a field or the workspace, under either field kind: ``run``
    # read past the field with a bad source and spent its whole budget
    # on a bad goal.
    grid = Grid(10, 10)
    field = HeuristicField(grid, (9, 9)).flat
    cells = {"source": grid.cell_index((2, 2)), "goal": 99, end: bad}
    head = (grid.kernel_capsule(COMPILED), COMPILED.store_new(None, -1, 0, 0),
            h_mode, (9, 9) if h_mode == 1 and entry == "run" else field,
            cells["source"], cells["goal"], 0)
    tail = (200_000, 0, 0, 0, 0) if entry == "run" else (0, 0, 0)
    with pytest.raises(IndexError, match="cell outside grid"):
        getattr(COMPILED, entry)(*head, *tail)


@needs_compiled
class TestRunHandsBackOneBuffer:
    """``run`` returns the leg as one checked ``array('q')`` of keys."""

    def problem(self, width=18, trigger=0, budget=200_000,
                table_name="cdt", walks=True):
        set_search_kernel("compiled")
        grid = Grid(width, 12)
        table = TABLES[table_name](grid)
        crossing_traffic(table, width)
        goal = (width - 1, 9)
        h_mode, h_arg = (1, goal) if walks else (
            2, _no_descent(width, 12, goal))
        args = (grid.kernel_capsule(COMPILED), table.kernel_probe_spec(),
                h_mode, h_arg, grid.cell_index((0, 2)),
                grid.cell_index(goal), 3, budget, trigger, 0, 0, 0)
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

    @pytest.mark.parametrize("status, trigger, budget, walks", [
        (0, 0, 200_000, True),   # complete
        (1, 0, 5, True),         # budget
        (4, 4, 200_000, True),   # the finisher walked the tail
        (0, 4, 200_000, False),  # every walk declined
    ])
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_every_status_retains_nothing(self, status, trigger, budget,
                                          walks, table_name):
        # every table's store: whatever the search allocates goes back
        # however the call ends
        __, table, __, args = self.problem(6, trigger, budget, table_name,
                                           walks)
        status_got, __, tried = COMPILED.run(*args)[:3]
        assert status_got == status and bool(tried) == bool(trigger)
        assert_retains_nothing(lambda: COMPILED.run(*args),
                               (args[0], args[1], args[3]), calls=2_000)


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
            2, array("i", field), 0, 8, 0, 200_000, 0, deep, 0, 0)

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
            return COMPILED.run(*head, h_mode, h_arg, 0, 8, 0, 200_000, 0,
                                0, 0, 0)[:2]
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
    # The problem is built under the compiled switch, so the grid holds no
    # python adjacency rows before the compiled search runs.
    set_search_kernel("compiled")
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
        # The compiled core reads the capsule: no python row exists yet,
        # and the rows the python core then builds are the contract's.
        assert not grid.adjacency
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


@needs_compiled
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=hyp.integers(min_value=0, max_value=10 ** 9),
       trigger=hyp.integers(min_value=1, max_value=12))
def test_property_finisher_walks_match(seed, trigger):
    # EATP's finisher inside the search: ``run`` walks the descent itself
    # and ``_search_heap`` through ``follow_with_waits``; over random
    # floors, traffic, both field kinds and each of the three tables
    # the kernel serves, the path, the counters and the cells the walks
    # started from, in order, are the same.
    grid, paths, request, table_name, heuristic = _random_problem(seed)
    request = dataclasses.replace(request, finisher_trigger=trigger)

    def run(kernel):
        set_search_kernel(kernel)
        table = TABLES[table_name](grid)
        for path in paths:
            table.reserve_path(path)
        stats = SearchStats()
        with count_kernel_calls(COMPILED, ["run"]) as calls:
            outcome = search(grid, table, request, heuristic=heuristic,
                             stats=stats)
        assert calls["run"] == (kernel == "compiled")
        return outcome, stats

    try:
        comp, c_stats = run("compiled")
        py, py_stats = run("python")
    finally:
        set_search_kernel("auto")
    assert_same_search(comp, c_stats, py, py_stats)
    field = st_astar._heuristic_field(grid, request.goal, heuristic)
    assert all(0 < field[grid.cell_index(cell)] <= trigger
               for cell in py.finisher_starts)


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
