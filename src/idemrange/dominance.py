"""Sampled dominance-sum structure.

Stores, for each sample point, the semigroup sum of the input points it
dominates.  A dominance query takes the maxima of the dominated samples,
uses their stored sums, and covers the leftover staircase region with
singletons.  Lookup bookkeeping (grid gathers, sorting) is free in the cost
model; only semigroup additions count.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedQuery
from .geometry import QueryAnswer
from .gridindex import GridIndex
from .points import WeightedPointSet, hammersley_wd
from .rangetree import box_sums
from .semigroup import Semigroup, fold_values, singleton_value

__all__ = ["maxima", "DominanceStructure", "build_dominance", "dominance_query", "dominance_cover"]


def maxima(coords: np.ndarray) -> np.ndarray:
    """Indices of points not strictly dominated by another point of the set."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    m, dd = coords.shape
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if dd == 1:
        top = coords[:, 0].max()
        return np.nonzero(coords[:, 0] == top)[0][:1]
    if dd == 2:
        order = np.lexsort((-coords[:, 1], -coords[:, 0]))  # x desc, then y desc
        ys = coords[order, 1]
        prev_max = np.concatenate(([-np.inf], np.maximum.accumulate(ys)[:-1]))
        return np.sort(order[ys > prev_max]).astype(np.int64)
    # generic quadratic check
    out = []
    for i in range(m):
        ge = np.all(coords >= coords[i], axis=1)
        gt = np.any(coords > coords[i], axis=1)
        if not np.any(ge & gt):
            out.append(i)
    return np.asarray(out, dtype=np.int64)


def dominance_cover(cand: np.ndarray, targets: np.ndarray):
    """Shared cover step: maxima of ``cand``, coverage of ``targets``.

    Returns (maxima indices into cand, per-target covered flags,
    per-maximum used flags).  A target is covered when some maximum
    dominates it (closed comparisons); a maximum is used when it covers at
    least one target.
    """
    cand = np.atleast_2d(cand)
    targets = np.atleast_2d(targets)
    m_idx = maxima(cand) if len(cand) else np.empty(0, dtype=np.int64)
    t = len(targets)
    if len(m_idx) == 0 or t == 0:
        return m_idx, np.zeros(t, dtype=bool), np.zeros(len(m_idx), dtype=bool)
    tops = cand[m_idx]
    covmat = np.ones((len(m_idx), t), dtype=bool)
    for j in range(cand.shape[1]):
        covmat &= targets[:, j][None, :] <= tops[:, j][:, None]
    return m_idx, covmat.any(axis=0), covmat.any(axis=1)


class DominanceStructure:
    """Immutable after build; queries are pure."""

    def __init__(self, points: WeightedPointSet, sg: Semigroup, samples: np.ndarray, weights):
        self.points = points
        self.sg = sg
        self.samples = samples
        self._w = weights  # sg.weights: ids themselves for idset
        self.grid = GridIndex(points.coords)
        self.counts, self.values = box_sums(points.coords, self._w, sg, np.full_like(samples, -np.inf), samples)

    @property
    def num_sums(self) -> int:
        return len(self.samples)

    @property
    def s_plus(self) -> int:
        """Storage: stored sums holding at least two points."""
        return int(np.sum(self.counts >= 2))


def build_dominance(
    points: WeightedPointSet,
    s: int,
    sg: Semigroup,
    *,
    samples: np.ndarray | None = None,
    weights=None,
) -> DominanceStructure:
    """Sample sums built by one batched ``box_sums``; default samples are a Hammersley set."""
    if not 1 <= s <= len(points):
        raise ValueError(f"sample count {s} outside 1..{len(points)}")
    if samples is None:
        samples = hammersley_wd(s, points.d).coords
    else:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if len(samples) != s or samples.shape[1] != points.d:
            raise ValueError("samples shape must be (s, d)")
    return DominanceStructure(points, sg, samples, sg.weights(points, weights))


def dominance_query(ds: DominanceStructure, q) -> QueryAnswer:
    """Answer the dominance range (-inf, q_1] x ... x (-inf, q_d]."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (ds.points.d,):
        raise MalformedQuery(f"query has shape {q.shape}, structure has {ds.points.d} dims")
    if np.isnan(q).any():
        raise MalformedQuery("query bounds must not be NaN")
    target_idx = ds.grid.points_in_box(np.full(ds.points.d, -np.inf), q)
    if target_idx.size == 0:
        return QueryAnswer(None, 0, 0)
    live = np.nonzero(np.all(ds.samples <= q, axis=1) & (ds.counts >= 1))[0]
    m_idx, covered, used = dominance_cover(ds.samples[live], ds.points.coords[target_idx])
    used_global = live[m_idx]
    parts = list(ds.values[used_global])  # one gather for every used sum
    residual = target_idx[~covered]
    if residual.size:
        parts.append(singleton_value(ds.sg, residual, ds._w))
    value = fold_values(parts, ds.sg)
    return QueryAnswer(value, sums_used=int(len(used_global)), singletons_used=int(residual.size))
