"""Uniform bucket grid over points in the unit cube.

Used for residual/singleton enumeration.  Lookups are array bookkeeping,
not semigroup additions, so they are free in the cost model.  Points are
sorted by their flat cell id (row-major); a box lookup lists the flat ids
of the first cell of every row of its cell range along the last dimension,
finds each row's run of points with two ``searchsorted`` calls, and gathers
all runs at once; the gathered points are then tested one contiguous
coordinate column at a time.  Coordinates outside the unit cube,
infinities included, fall in the edge cells.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridIndex"]


def _cells_per_dim(n: int, d: int) -> int:
    """Cells per dimension: about one point per cell."""
    return max(1, int(round(max(n, 1) ** (1.0 / d))))


class GridIndex:
    def __init__(self, coords: np.ndarray):
        coords = np.atleast_2d(coords)
        self.cols = np.ascontiguousarray(coords.T)  # one contiguous array per dimension
        n, d = coords.shape
        self.d = d
        self.g = _cells_per_dim(n, d)
        # clip before the int conversion: a cast of |x * g| >= 2^63 overflows
        cell = np.clip(coords * self.g, 0.0, self.g - 1.0).astype(np.int64)
        flat = np.zeros(n, dtype=np.int64)
        for j in range(d):
            flat = flat * self.g + cell[:, j]
        self.order = np.argsort(flat, kind="stable")
        self.sorted_flat = flat[self.order]

    def _cell_range(self, lo: float, hi: float) -> tuple[int, int]:
        # clip before int conversion: infinite bounds land in the edge cells
        g = self.g
        return int(min(max(lo * g, 0.0), g - 1.0)), int(min(max(hi * g, 0.0), g - 1.0))

    def candidates_in_box(self, lo, hi) -> np.ndarray:
        """Indices of points in grid cells overlapping the closed box
        (superset), in flat cell order."""
        ranges = [self._cell_range(float(l), float(h)) for l, h in zip(lo, hi)]
        if any(c0 > c1 for c0, c1 in ranges):
            return np.empty(0, dtype=np.int64)
        g = self.g
        base = np.zeros(1, dtype=np.int64)  # flat ids of the cell-row prefixes, in product order
        for c0, c1 in ranges[:-1]:
            base = (base[:, None] * g + np.arange(c0, c1 + 1)).ravel()
        last_lo, last_hi = ranges[-1]
        start = self.sorted_flat.searchsorted(base * g + last_lo, side="left")
        width = self.sorted_flat.searchsorted(base * g + last_hi, side="right") - start
        pos = np.repeat(start - np.cumsum(width) + width, width) + np.arange(width.sum())
        return self.order[pos]

    def points_in_box(self, lo, hi) -> np.ndarray:
        """Indices of points inside the closed box (lo entries may be -inf)."""
        cand = self.candidates_in_box(lo, hi)
        keep = np.ones(cand.size, dtype=bool)
        for col, l, h in zip(self.cols, lo, hi):
            x = col[cand]
            keep &= (x >= l) & (x <= h)
        return cand[keep]
