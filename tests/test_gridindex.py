import itertools

import numpy as np
import pytest

from idemrange import gridindex
from idemrange.gridindex import GridIndex


def _loop_candidates(grid: GridIndex, lo, hi) -> np.ndarray:
    """Reference: one pair of searchsorted calls per row of grid cells."""
    ranges = []
    for l, h in zip(lo, hi):
        c0 = int(np.clip(np.floor(float(l) * grid.g), 0, grid.g - 1))
        c1 = int(np.clip(np.floor(float(h) * grid.g), 0, grid.g - 1))
        ranges.append((c0, c1))
    if any(c0 > c1 for c0, c1 in ranges):
        return np.empty(0, dtype=np.int64)
    chunks = []
    last_lo, last_hi = ranges[-1]
    for prefix in itertools.product(*[range(c0, c1 + 1) for c0, c1 in ranges[:-1]]):
        base = 0
        for c in prefix:
            base = base * grid.g + c
        start = np.searchsorted(grid.sorted_flat, base * grid.g + last_lo, side="left")
        stop = np.searchsorted(grid.sorted_flat, base * grid.g + last_hi, side="right")
        if stop > start:
            chunks.append(grid.order[start:stop])
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks)


_BOUNDS = (-np.inf, -0.5, 0.0, 0.3, 0.5, 0.99, 1.0, 1.5, np.inf)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("cells", [None, 1, 3])
def test_candidates_match_per_cell_loop(monkeypatch, d, cells):
    rng = np.random.default_rng(10 * d + (cells or 0))
    coords = rng.uniform(-0.2, 1.2, (300, d))
    coords[:40] = rng.integers(0, 5, (40, d)) / 4  # points on cell boundaries
    if cells is not None:
        monkeypatch.setattr(gridindex, "_cells_per_dim", lambda n, d: cells)
    grid = GridIndex(coords)
    assert grid.g == (cells or round(300 ** (1 / d)))
    nonempty = 0
    for _ in range(200):
        lo = np.where(rng.random(d) < 0.3, rng.choice(_BOUNDS, d), rng.uniform(-0.3, 1.3, d))
        hi = np.where(rng.random(d) < 0.3, rng.choice(_BOUNDS, d), rng.uniform(-0.3, 1.3, d))
        want = _loop_candidates(grid, lo, hi)
        got = grid.candidates_in_box(lo, hi)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        inside = np.all((coords[got] >= lo) & (coords[got] <= hi), axis=1)
        assert np.array_equal(grid.points_in_box(lo, hi), got[inside])
        nonempty += want.size > 0
    assert nonempty > 20


def test_candidates_edge_boxes():
    rng = np.random.default_rng(5)
    coords = rng.random((200, 3))
    grid = GridIndex(coords)
    inf = np.inf
    for lo, hi in (
        ((-inf, -inf, -inf), (inf, inf, inf)),  # every point
        ((0.6, 0.0, 0.0), (0.4, 1.0, 1.0)),  # inverted range: empty
        ((1.5, 0.0, 0.0), (2.0, 1.0, 1.0)),  # outside the cube: edge cells
        ((-2.0, -2.0, -2.0), (-1.0, -1.0, -1.0)),
        ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5)),  # one cell
    ):
        got = grid.candidates_in_box(lo, hi)
        assert np.array_equal(got, _loop_candidates(grid, lo, hi))
    assert np.array_equal(np.sort(grid.candidates_in_box((-inf,) * 3, (inf,) * 3)), np.arange(200))


@pytest.mark.parametrize("x", [1e19, -1e19, 1e300, -1e300, np.inf, -np.inf])
def test_far_out_coordinates_land_in_edge_cells(monkeypatch, x):
    coords = np.array([[0.5, 0.5], [x, 0.5], [0.5, x]])
    monkeypatch.setattr(gridindex, "_cells_per_dim", lambda n, d: 4)
    grid = GridIndex(coords)
    edge = 3 if x > 0 else 0
    assert sorted(grid.sorted_flat.tolist()) == sorted([2 * 4 + 2, edge * 4 + 2, 2 * 4 + edge])
    lo, hi = (min(x, 0.5), -np.inf), (max(x, 0.5), np.inf)
    assert np.array_equal(np.sort(grid.points_in_box(lo, hi)), [0, 1, 2])
