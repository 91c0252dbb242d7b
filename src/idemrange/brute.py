"""Brute-force scan oracle.  Deliberately structure-free: one mask, one fold."""

from __future__ import annotations

import numpy as np

from .geometry import Box
from .points import WeightedPointSet
from .semigroup import Semigroup, fold_values, singleton_value

__all__ = ["scan_mask", "scan_ids", "scan_value"]


def scan_mask(coords: np.ndarray, box: Box) -> np.ndarray:
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    return np.all((coords >= lo) & (coords <= hi), axis=1)


def scan_ids(points: WeightedPointSet, box: Box) -> np.ndarray:
    """Exact sorted id-set of the points inside the closed box."""
    return np.sort(points.ids[scan_mask(points.coords, box)])


def scan_value(points: WeightedPointSet, box: Box, sg: Semigroup, weights=None):
    """Exact semigroup value inside the box; None when empty.

    Folds one ``singleton_value`` per point on purpose: the structures sum
    weight arrays (``Semigroup.reduce`` and ``reduce_groups``) instead, and
    the oracle should not share that path.
    """
    w = sg.weights(points, weights)
    idx = np.nonzero(scan_mask(points.coords, box))[0]
    if idx.size == 0:
        return None
    return fold_values([singleton_value(sg, int(i), w) for i in idx], sg)
