import numpy as np
import pytest

from idemrange.gridindex import GridIndex


def _scan(coords: np.ndarray, lo, hi, dims=None) -> list[int]:
    """Reference: the sorted indices of the points inside the closed box,
    testing one point at a time, in the dimensions ``dims`` (default all)."""
    dims = range(coords.shape[1]) if dims is None else dims
    return [i for i, p in enumerate(coords) if all(lo[j] <= p[j] <= hi[j] for j in dims)]


def _check(grid: GridIndex, coords: np.ndarray, lo, hi) -> np.ndarray:
    """Both lookups against the scan: the candidates are exactly the points
    with dim-0 in [lo0, hi0], in dim-0 order, and the box's points are the
    candidates that pass the other columns, in the same order."""
    cand = grid.candidates_in_box(lo, hi)
    got = grid.points_in_box(lo, hi)
    assert cand.dtype == np.int64 and got.dtype == np.int64
    assert sorted(cand.tolist()) == _scan(coords, lo, hi, dims=[0])
    x0 = coords[cand, 0]
    assert np.all(x0[1:] >= x0[:-1])
    assert sorted(got.tolist()) == _scan(coords, lo, hi)
    assert np.array_equal(got, cand[np.isin(cand, got)])  # a subsequence of the candidates
    return got


_BOUNDS = (-np.inf, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, np.inf)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_lookups_match_point_scan(d):
    rng = np.random.default_rng(10 * d)
    coords = rng.uniform(-0.2, 1.2, (300, d))
    coords[:80] = rng.integers(0, 5, (80, d)) / 4  # ties, many of them on the boxes' edges
    grid = GridIndex(coords)
    assert np.array_equal(np.sort(grid.order), np.arange(300))
    assert all(c.flags.c_contiguous for c in grid.cols)
    nonempty = 0
    for _ in range(200):
        lo = np.where(rng.random(d) < 0.4, rng.choice(_BOUNDS, d), rng.uniform(-0.3, 1.3, d))
        hi = np.where(rng.random(d) < 0.4, rng.choice(_BOUNDS, d), rng.uniform(-0.3, 1.3, d))
        nonempty += _check(grid, coords, lo, hi).size > 0
    assert nonempty > 20


def test_ties_on_the_window_edges():
    """Points tied on dim 0 at both ends of the window are all candidates,
    and in input order among themselves."""
    coords = np.array([[0.5, 0.9], [0.25, 0.1], [0.5, 0.1], [0.75, 0.5], [0.25, 0.9], [0.75, 0.2], [0.6, 0.3]])
    grid = GridIndex(coords)
    assert grid.candidates_in_box((0.25, 0.0), (0.75, 1.0)).tolist() == [1, 4, 0, 2, 6, 3, 5]
    assert grid.candidates_in_box((0.5, 0.0), (0.5, 1.0)).tolist() == [0, 2]
    assert grid.points_in_box((0.25, 0.0), (0.75, 0.4)).tolist() == [1, 2, 6, 5]
    assert grid.candidates_in_box((0.3, 0.0), (0.45, 1.0)).size == 0  # no key in the window
    for lo, hi in (((0.25, 0.0), (0.75, 0.4)), ((0.5, 0.1), (0.75, 0.5)), ((0.2, 0.0), (0.5, 0.1))):
        _check(grid, coords, lo, hi)


def test_candidates_edge_boxes():
    rng = np.random.default_rng(5)
    coords = rng.random((200, 3))
    grid = GridIndex(coords)
    inf = np.inf
    p = coords[17]
    for lo, hi, want in (
        ((-inf, -inf, -inf), (inf, inf, inf), 200),  # every point
        ((0.6, 0.0, 0.0), (0.4, 1.0, 1.0), 0),  # inverted in dim 0: empty
        ((0.0, 0.6, 0.0), (1.0, 0.4, 1.0), 0),  # inverted in a later dimension: empty
        ((1.5, 0.0, 0.0), (2.0, 1.0, 1.0), 0),  # outside the cube
        ((-2.0, -2.0, -2.0), (-1.0, -1.0, -1.0), 0),
        ((-inf, -inf, -inf), (-inf, -inf, -inf), 0),
        (tuple(p), tuple(p), 1),  # one point
        ((p[0], -inf, -inf), (p[0], inf, inf), 1),  # one dim-0 key
    ):
        assert _check(grid, coords, lo, hi).size == want
    assert grid.points_in_box(tuple(p), tuple(p)).tolist() == [17]


@pytest.mark.parametrize("x", [1e19, -1e19, 1e300, -1e300, np.inf, -np.inf])
def test_far_out_coordinates_compare_as_they_are(x):
    coords = np.array([[0.5, 0.5], [x, 0.5], [0.5, x], [x, x]])
    grid = GridIndex(coords)
    both = (min(x, 0.5), min(x, 0.5)), (max(x, 0.5), max(x, 0.5))
    assert sorted(grid.points_in_box(*both).tolist()) == [0, 1, 2, 3]
    assert grid.points_in_box((0.0, 0.0), (1.0, 1.0)).tolist() == [0]
    inf = np.inf
    near = ((1e18, -inf), (inf, inf)) if x > 0 else ((-inf, -inf), (-1e18, inf))  # beyond 1e18 on x's side
    assert sorted(grid.candidates_in_box(*near).tolist()) == [1, 3]
    for lo, hi in (both, near, ((-inf, 0.0), (inf, 1.0)), ((x, x), (x, x))):
        _check(grid, coords, lo, hi)
