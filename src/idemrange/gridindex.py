"""Uniform bucket grid over points in the unit cube.

Used for residual/singleton enumeration.  Lookups are array bookkeeping,
not semigroup additions, so they are free in the cost model.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["GridIndex"]


class GridIndex:
    def __init__(self, coords: np.ndarray, cells_per_dim: int | None = None):
        coords = np.atleast_2d(coords)
        self.coords = coords
        n, d = coords.shape
        self.d = d
        if cells_per_dim is None:
            cells_per_dim = max(1, int(round(max(n, 1) ** (1.0 / d))))
        self.g = cells_per_dim
        cell = np.clip((coords * self.g).astype(np.int64), 0, self.g - 1)
        flat = np.zeros(n, dtype=np.int64)
        for j in range(d):
            flat = flat * self.g + cell[:, j]
        self.order = np.argsort(flat, kind="stable")
        self.sorted_flat = flat[self.order]

    def _cell_range(self, lo: float, hi: float) -> tuple[int, int]:
        # clip before int conversion: infinite bounds land in the edge cells
        c0 = int(np.clip(np.floor(lo * self.g), 0, self.g - 1))
        c1 = int(np.clip(np.floor(hi * self.g), 0, self.g - 1))
        return c0, c1

    def candidates_in_box(self, lo, hi) -> np.ndarray:
        """Indices of points in grid cells overlapping the closed box (superset)."""
        ranges = [self._cell_range(float(l), float(h)) for l, h in zip(lo, hi)]
        if any(c0 > c1 for c0, c1 in ranges):
            return np.empty(0, dtype=np.int64)
        chunks = []
        last_lo, last_hi = ranges[-1]
        for prefix in itertools.product(*[range(c0, c1 + 1) for c0, c1 in ranges[:-1]]):
            base = 0
            for c in prefix:
                base = base * self.g + c
            start = np.searchsorted(self.sorted_flat, base * self.g + last_lo, side="left")
            stop = np.searchsorted(self.sorted_flat, base * self.g + last_hi, side="right")
            if stop > start:
                chunks.append(self.order[start:stop])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def points_in_box(self, lo, hi) -> np.ndarray:
        """Indices of points inside the closed box (lo entries may be -inf)."""
        cand = self.candidates_in_box(lo, hi)
        if cand.size == 0:
            return cand
        pts = self.coords[cand]
        lo_arr = np.asarray(lo, dtype=np.float64)
        hi_arr = np.asarray(hi, dtype=np.float64)
        mask = np.all((pts >= lo_arr) & (pts <= hi_arr), axis=1)
        return cand[mask]
