"""Box lookups over points sorted by dim 0: a filtering search (Chazelle,
SIAM J. Comput. 1986), the points' twin of ``idsstruct._SumIndex.inside``.

A box's candidates are the window of points whose dim-0 coordinate lies
in [lo0, hi0] (two ``searchsorted`` calls); its points are the window's
survivors of the other d - 1 column tests.  No coordinate is cast, so
far-out ones, infinities included, compare as they are.  Lookups are free
in the cost model.  The class keeps the name ``GridIndex`` because the
benchmark's tracer wraps it by that name.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GridIndex"]


class GridIndex:
    def __init__(self, coords: np.ndarray):
        coords = np.atleast_2d(coords)
        self.order = np.argsort(coords[:, 0], kind="stable")
        self.cols = np.ascontiguousarray(coords[self.order].T)  # one contiguous column per dimension, in dim-0 order

    def candidates_in_box(self, lo, hi) -> np.ndarray:
        """Indices, in dim-0 order, of the points whose dim-0 coordinate
        lies in [lo0, hi0]: a superset of the closed box's points."""
        x0 = self.cols[0]
        return self.order[x0.searchsorted(lo[0]) : x0.searchsorted(hi[0], side="right")]

    def points_in_box(self, lo, hi) -> np.ndarray:
        """Indices, in dim-0 order, of the points inside the closed box."""
        cand = self.candidates_in_box(lo, hi)
        start = self.cols[0].searchsorted(lo[0])  # the window's first position
        keep = np.ones(cand.size, dtype=bool)
        for col, l, h in zip(self.cols[1:], lo[1:], hi[1:]):
            x = col[start : start + cand.size]
            keep &= (x >= l) & (x <= h)
        return cand[keep]
