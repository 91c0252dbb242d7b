"""Sampled dominance-sum structure.

Stores, for each sample point, the semigroup sum of the input points it
dominates.  A dominance query takes the maxima of the dominated samples,
uses their stored sums, and covers the leftover staircase region with
singletons.  Lookup bookkeeping (the targets' dim-0 window, sorting) is
free in the cost model; only semigroup additions count.
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


def _generic_maxima(coords: np.ndarray) -> list[int]:
    """Quadratic check: a point dominated strictly, or equal to an earlier
    one, is dropped."""
    out = []
    earlier = np.zeros(len(coords), dtype=bool)
    for i in range(len(coords)):
        ge = np.all(coords >= coords[i], axis=1)
        gt = np.any(coords > coords[i], axis=1)
        if not np.any(ge & (gt | earlier)):
            out.append(i)
        earlier[i] = True
    return out


def maxima(coords: np.ndarray, groups=None) -> np.ndarray:
    """Indices, ascending, of the points not strictly dominated by another
    point of their group; of several equal points of a group, only the
    first.  ``groups`` holds each point's integer group (default: one group).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    m, dd = coords.shape
    if m == 0:
        return np.empty(0, dtype=np.int64)
    groups = np.zeros(m, dtype=np.int64) if groups is None else np.asarray(groups)
    if dd == 1:
        order = np.lexsort((-coords[:, 0], groups))  # by group, then x desc; ties in index order
        gs = groups[order]
        return np.sort(order[np.diff(gs, prepend=gs[0] - 1) != 0])  # the first top of each group
    if dd == 2:
        order = np.lexsort((-coords[:, 1], -coords[:, 0], groups))  # by group, x desc, then y desc
        gs, ys = groups[order], coords[order, 1]
        # y ranks (ties share one) offset by a group number: each group's offset ranks
        # exceed every earlier group's, so one running max restarts at each group
        ranks = np.sort(ys).searchsorted(ys) + m * np.cumsum(np.diff(gs, prepend=gs[0]) != 0)
        prev_max = np.concatenate(([-1], np.maximum.accumulate(ranks)[:-1]))
        return np.sort(order[ranks > prev_max])
    members = [(groups == g).nonzero()[0] for g in np.unique(groups)]
    return np.sort(np.concatenate([idx[_generic_maxima(coords[idx])] for idx in members]))


def dominance_cover(cand: np.ndarray, targets: np.ndarray, cand_groups=None, target_groups=None):
    """Shared cover step: maxima of ``cand``, coverage of ``targets``, group
    by group.

    Returns (maxima indices into cand, ascending; per-target covered flags;
    per-maximum used flags).  A target is covered when some maximum of its
    own group dominates it (closed comparisons); a maximum is used when it
    covers at least one target.  ``cand_groups`` and ``target_groups`` hold
    each candidate's and target's integer group (default: one group), so one
    call does the work of one call per group.  A group with no candidates
    covers none of its targets.
    """
    cand = np.atleast_2d(cand)
    targets = np.atleast_2d(targets)
    t = len(targets)
    if cand_groups is None:
        cand_groups, target_groups = np.zeros(len(cand), dtype=np.int64), np.zeros(t, dtype=np.int64)
    m_idx = maxima(cand, cand_groups) if len(cand) else np.empty(0, dtype=np.int64)
    if len(m_idx) == 0 or t == 0:
        return m_idx, np.zeros(t, dtype=bool), np.zeros(len(m_idx), dtype=bool)
    tops = cand[m_idx]
    covmat = np.asarray(cand_groups)[m_idx, None] == target_groups  # (maximum, target) of one group
    for j in range(cand.shape[1]):
        covmat &= targets[:, j] <= tops[:, j, None]
    return m_idx, covmat.any(axis=0), covmat.any(axis=1)


class DominanceStructure:
    """Immutable after build; queries are pure."""

    def __init__(self, points: WeightedPointSet, sg: Semigroup, samples: np.ndarray, weights):
        self.points = points
        self.sg = sg
        self.samples = samples
        self.sample_cols = np.ascontiguousarray(samples.T)  # one contiguous array per dimension
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
    live = ds.counts >= 1
    for col, b in zip(ds.sample_cols, q):
        live &= col <= b
    live = np.flatnonzero(live)
    m_idx, covered, used = dominance_cover(ds.samples[live], ds.points.coords[target_idx])
    used_global = live[m_idx]
    parts = [ds.sg.reduce(ds.values[used_global])] if used_global.size else []  # one gather for every used sum
    residual = target_idx[~covered]
    if residual.size:
        parts.append(singleton_value(ds.sg, residual, ds._w))
    value = fold_values(parts, ds.sg)
    return QueryAnswer(value, sums_used=int(len(used_global)), singletons_used=int(residual.size))
