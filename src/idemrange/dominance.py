"""The dominance cover step that both structures share.

Given candidate corners and target points, ``dominance_cover`` takes the
maxima of the candidates (``maxima``) and marks the targets some maximum
dominates, group by group.  A stored sum whose box is (-inf, corner] in the
compared dimensions then holds every target its corner dominates, so the
maxima's sums plus the uncovered targets as singletons answer a dominance
query.  The sampled dominance structure (``idsstruct.DominanceStructure``)
calls it once per query over its live samples, and the (d+k)-sided
structure once per query over every cover tuple's candidates, each tuple a
group.  Sorting and comparing are free in the cost model; only semigroup
additions count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["maxima", "dominance_cover"]


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
