"""Unit tests for the static K-nearest-racks index (flip requesting).

The table has two builders, chosen by the kernel switch: the native
``knn_fill`` and the numpy tile body (``knn._tile_fill``).  Each must
equal the brute-force argsort; the native one must also equal the numpy
body on the paper floor and refuse malformed arguments before writing.
The flip's gather (``StaticRackKNN.select``) is python under either
switch; the compiled flip gathers inside the kernel's ``learned_select``,
which ``tests/test_learned_select.py`` holds to it.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.pathfinding._kernel import build_and_load
from repro.pathfinding.st_astar import search_kernel_name, set_search_kernel
from repro.types import manhattan
from repro.warehouse import knn
from repro.warehouse.knn import StaticRackKNN
from repro.workloads.datasets import fleet_ladder
from tests.conftest import count_kernel_calls

COMPILED = build_and_load()

needs_compiled = pytest.mark.skipif(COMPILED is None,
                                    reason="native kernel unavailable")


@pytest.fixture(params=["python",
                        pytest.param("compiled", marks=needs_compiled)])
def kernel(request):
    previous = search_kernel_name()
    set_search_kernel(request.param)
    yield request.param
    set_search_kernel(previous)


HOMES = [(1, 1), (5, 1), (9, 1), (1, 5), (5, 5), (9, 5)]


class TestConstruction:
    def test_rejects_k_zero(self):
        with pytest.raises(ConfigurationError):
            StaticRackKNN(HOMES, 12, 8, k=0)

    def test_rejects_empty_homes(self):
        with pytest.raises(ConfigurationError):
            StaticRackKNN([], 12, 8, k=1)

    def test_k_clamped_to_rack_count(self):
        index = StaticRackKNN(HOMES, 12, 8, k=50)
        assert index.k == len(HOMES)

    @pytest.mark.parametrize("home", [(12, 0), (0, 8), (-1, 3)])
    def test_rejects_a_home_off_the_grid(self, kernel, home):
        with pytest.raises(ConfigurationError):
            StaticRackKNN(HOMES + [home], 12, 8, k=2)

    @needs_compiled
    def test_the_switch_picks_the_builder(self, kernel):
        with count_kernel_calls(COMPILED, ["knn_fill"]) as calls:
            StaticRackKNN(HOMES, 12, 8, k=2)
        assert calls["knn_fill"] == (kernel == "compiled")


class TestNearest:
    def test_nearest_matches_brute_force(self):
        index = StaticRackKNN(HOMES, 12, 8, k=3)
        for cell in [(0, 0), (6, 4), (11, 7), (5, 1)]:
            got = index.nearest(cell)
            expected = sorted(range(len(HOMES)),
                              key=lambda r: (manhattan(cell, HOMES[r]),))
            # Distances may tie; compare distance multisets.
            got_d = [manhattan(cell, HOMES[r]) for r in got]
            exp_d = [manhattan(cell, HOMES[r]) for r in expected[:3]]
            assert got_d == exp_d

    def test_nearest_first_is_own_cell_if_home(self):
        index = StaticRackKNN(HOMES, 12, 8, k=2)
        assert index.nearest((5, 5))[0] == 4

    def test_out_of_bounds_rejected(self):
        index = StaticRackKNN(HOMES, 12, 8, k=2)
        with pytest.raises(ConfigurationError):
            index.nearest((12, 0))


def nearest_where(index, cell, predicate):
    """First of ``cell``'s K closest racks satisfying ``predicate``, or
    None — the flip's probe of one robot's neighbourhood."""
    return next((r for r in index.nearest(cell) if predicate(r)), None)


class TestNearestWhere:
    def test_returns_first_matching(self):
        index = StaticRackKNN(HOMES, 12, 8, k=6)
        got = nearest_where(index, (0, 0), lambda r: r >= 3)
        # Nearest homes from (0,0): 0 (d=2), 3 (d=6), 1 (d=6)... predicate
        # skips 0; the first accepted must be at distance >= 6.
        assert got is not None and got >= 3

    def test_returns_none_when_no_match(self):
        index = StaticRackKNN(HOMES, 12, 8, k=3)
        assert nearest_where(index, (0, 0), lambda r: False) is None


class TestMemory:
    def test_memory_scales_with_k(self):
        small = StaticRackKNN(HOMES, 12, 8, k=1)
        large = StaticRackKNN(HOMES, 12, 8, k=6)
        assert large.memory_bytes() > small.memory_bytes()


def brute_force(homes, width, height, k):
    """The oracle: first K of the stable argsort of every cell's distances."""
    homes = np.array(homes, dtype=np.int64)
    xs, ys = np.arange(width)[:, None, None], np.arange(height)[None, :, None]
    dist = np.abs(xs - homes[:, 0]) + np.abs(ys - homes[:, 1])  # (W, H, R)
    return np.argsort(dist, axis=2, kind="stable")[:, :, :min(k, len(homes))]


def distinct_cells(rng, n, x_range, y_range):
    """``n`` distinct cells of the box, in random (rack-id) order."""
    box = [(x, y) for x in range(*x_range) for y in range(*y_range)]
    return [box[i] for i in rng.permutation(len(box))[:n]]


def layouts():
    rng = np.random.default_rng(12)
    tile = knn.TILE
    wide, tall = 5 * tile + 3, 3 * tile + 1   # ragged edge tiles both ways
    yield "random", distinct_cells(rng, 70, (0, wide), (0, tall)), wide, tall, 8
    clustered = (distinct_cells(rng, 30, (0, 6), (0, 6))
                 + distinct_cells(rng, 30, (wide - 5, wide), (tall - 7, tall)))
    yield "clustered", clustered, wide, tall, 8
    yield "one-corner", distinct_cells(rng, 40, (0, 7), (0, 6)), wide, tall, 8
    yield "k-equals-racks", distinct_cells(rng, 9, (0, wide), (0, tall)), \
        wide, tall, 9
    yield "k-exceeds-racks", distinct_cells(rng, 5, (0, wide), (0, tall)), \
        wide, tall, 50
    # Equidistant racks everywhere (a lattice, plus racks sharing a cell):
    # the id must break every tie.
    lattice = [(x, y) for x in range(0, wide, 4) for y in range(0, tall, 4)]
    yield "ties", lattice + lattice[:10], wide, tall, 8
    yield "one-row", distinct_cells(rng, 25, (0, 60), (0, 1)), 60, 1, 8
    yield "one-column", distinct_cells(rng, 25, (0, 1), (0, 60)), 1, 60, 8
    yield "sub-tile-floor", distinct_cells(rng, 6, (0, 5), (0, 3)), 5, 3, 4
    yield "k-one", distinct_cells(rng, 70, (0, wide), (0, tall)), \
        wide, tall, 1


@pytest.mark.parametrize("name,homes,width,height,k",
                         [pytest.param(*case, id=case[0])
                          for case in layouts()])
def test_build_is_bit_identical_to_brute_force(kernel, name, homes, width,
                                               height, k):
    index = StaticRackKNN(homes, width, height, k)
    expected = brute_force(homes, width, height, k)
    assert index._nearest.shape == expected.shape
    assert index._nearest.dtype == np.int16
    assert (index._nearest == expected).all()
    assert index.memory_bytes() == (expected.size * 2
                                    + len(homes) * 2 * 8)


def test_int32_table_from_2_to_the_15_racks(kernel):
    # More racks than int16 ids hold, many sharing a home on a small floor.
    rng = np.random.default_rng(5)
    width, height = 9, 7
    homes = [(int(x), int(y)) for x, y in zip(
        rng.integers(0, width, 2 ** 15 + 3), rng.integers(0, height,
                                                          2 ** 15 + 3))]
    index = StaticRackKNN(homes, width, height, 8)
    assert index._nearest.dtype == np.int32
    assert (index._nearest == brute_force(homes, width, height, 8)).all()
    assert index.memory_bytes() == width * height * 8 * 4 + len(homes) * 16


@needs_compiled
def test_kernel_table_equals_the_numpy_body_on_the_paper_floor():
    spec = next(s for s in fleet_ladder(1.0) if s.name == "Fleet-500")
    state, __ = spec.build()
    homes = np.array([rack.home for rack in state.racks], dtype=np.int64)
    width, height = state.grid.width, state.grid.height
    ours = np.empty((width, height, 8), dtype=np.int16)
    theirs = np.empty_like(ours)
    COMPILED.knn_fill(homes, width, height, ours)
    knn._tile_fill(homes, width, height, theirs)
    assert (ours == theirs).all()


def malformed_calls():
    """``(name, homes, width, height, out, error)`` — each call refused."""
    homes = np.array(HOMES, dtype=np.int64)
    table = np.full((12, 8, 3), -7, dtype=np.int16)
    read_only = table.copy()
    read_only.setflags(write=False)
    off_floor = homes.copy()
    off_floor[2] = (12, 0)
    negative = homes.copy()
    negative[4] = (3, -1)
    yield "float-out", homes, 12, 8, table.astype(np.float32), TypeError
    yield "int64-out", homes, 12, 8, table.astype(np.int64), TypeError
    yield "int32-homes", homes.astype(np.int32), 12, 8, table, TypeError
    yield "homes-not-pairs", np.zeros((6, 3), np.int64), 12, 8, table, \
        TypeError
    yield "wrong-width", homes, 11, 8, table, ValueError
    yield "wrong-height", homes, 12, 9, table, ValueError
    yield "flat-out", homes, 12, 8, table.reshape(-1), ValueError
    yield "read-only-out", homes, 12, 8, read_only, ValueError
    yield "strided-out", homes, 12, 8, \
        np.full((12, 8, 6), -7, np.int16)[:, :, ::2], ValueError
    yield "fortran-out", homes, 12, 8, np.asfortranarray(table), ValueError
    yield "k-zero", homes, 12, 8, np.full((12, 8, 0), -7, np.int16), \
        ValueError
    yield "k-above-racks", homes, 12, 8, np.full((12, 8, 7), -7, np.int16), \
        ValueError
    yield "home-off-floor", off_floor, 12, 8, table, IndexError
    yield "home-negative", negative, 12, 8, table, IndexError


@needs_compiled
@pytest.mark.parametrize("name,homes,width,height,out,error",
                         [pytest.param(*case, id=case[0])
                          for case in malformed_calls()])
def test_knn_fill_refuses_malformed_arguments(name, homes, width, height,
                                              out, error):
    before = out.copy()
    with pytest.raises(error):
        COMPILED.knn_fill(homes, width, height, out)
    assert np.array_equal(out, before)


def test_the_gather_keeps_only_the_masked_racks():
    index = StaticRackKNN(HOMES, 12, 8, k=3)
    mask = bytearray([0, 1, 0, 0, 1, 0])
    cells = [(0, 0), (5, 5), (11, 0), (1, 7)]
    assert index.select(cells, mask) == [(0, [1]), (1, [4, 1]), (2, [1]),
                                         (3, [4])]
    # a cell whose K racks are all unmasked is left out
    mask[1] = 0
    assert index.select(cells, mask) == [(1, [4]), (3, [4])]
