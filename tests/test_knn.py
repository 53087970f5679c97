"""Unit tests for the static K-nearest-racks index (flip requesting)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.types import manhattan
from repro.warehouse.knn import StaticRackKNN


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


class TestNearestWhere:
    def test_returns_first_matching(self):
        index = StaticRackKNN(HOMES, 12, 8, k=6)
        got = index.nearest_where((0, 0), lambda r: r >= 3)
        # Nearest homes from (0,0): 0 (d=2), 3 (d=6), 1 (d=6)... predicate
        # skips 0; the first accepted must be at distance >= 6.
        assert got is not None and got >= 3

    def test_returns_none_when_no_match(self):
        index = StaticRackKNN(HOMES, 12, 8, k=3)
        assert index.nearest_where((0, 0), lambda r: False) is None


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
    tile = StaticRackKNN._TILE
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


@pytest.mark.parametrize("name,homes,width,height,k",
                         [pytest.param(*case, id=case[0])
                          for case in layouts()])
def test_build_is_bit_identical_to_brute_force(name, homes, width, height, k):
    index = StaticRackKNN(homes, width, height, k)
    expected = brute_force(homes, width, height, k)
    assert index._nearest.shape == expected.shape
    assert index._nearest.dtype == np.int16
    assert (index._nearest == expected).all()
    assert index.memory_bytes() == (expected.size * 2
                                    + len(homes) * 2 * 8)
