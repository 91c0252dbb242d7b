"""Batched box sums over a static range tree.

``box_sums`` gives, for many closed boxes at once, the number of points
inside each box and the semigroup sum of their weights.  Both structures
fill their stored sums with it.

The tree is the classic static range tree (Bentley, "Multidimensional
divide-and-conquer", CACM 1980; Lueker, "A data structure for orthogonal
range queries", FOCS 1978) over dim-0 ranks, with the points of each node
ordered by dim-1 rank.  A box's dim-0 rank range splits into at most two
canonical nodes per level, and in each of them its dim-1 rank range is one
contiguous slice.  Every node of every level sits in one flat array sorted
by a composite (node, dim-1 rank) key, so one ``searchsorted`` finds all
slices of all boxes.  Slices are expanded to members in chunks of about
``_CHUNK_PAIRS`` (box, member) pairs cut at box boundaries, dims 2.. are
tested on the members, and ``Semigroup.reduce_groups`` folds each box's
members into its value.
"""

from __future__ import annotations

import numpy as np

from .semigroup import Semigroup

__all__ = ["box_sums"]

# (box, member) pairs expanded at once
_CHUNK_PAIRS = 1 << 16


def _node_orders(yorder: np.ndarray, height: int):
    """Yields per level, top down: the dim-0 positions grouped by node, each
    node's positions in dim-1 order.

    A node at level l holds the positions p with the same p >> (height - l);
    as every position 0..n-1 is present, the node starting at position s
    also starts at index s of its level's array.  Each level is a stable
    partition of the level above: every parent's positions split by one bit.
    """
    a = yorder
    idx = np.arange(len(a))
    yield a
    for t in range(height - 1, -1, -1):  # the children's shift
        right = (a >> t) & 1
        left_before = np.concatenate(([0], np.cumsum(1 - right)))  # left children up to each index
        parent = (a >> (t + 1)) << (t + 1)  # index where the parent's positions begin
        rank_left = left_before[idx] - left_before[parent]
        rank = np.where(right == 1, idx - parent - rank_left, rank_left)
        nxt = np.empty_like(a)
        nxt[((a >> t) << t) + rank] = a
        a = nxt
        yield a


def _member_slices(coords: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray):
    """Build the tree and cut every box into slices of it.

    Returns (points, box, start, width): the point held by each tree slot,
    and per (box, canonical node) pair with members, in box order, the box,
    the first slot of its slice and the slice's length.
    """
    n, d = coords.shape
    m = len(box_lo)
    # rank space: dim-0 positions, and the dim-1 rank of each position (1-D: one tie)
    order0 = np.argsort(coords[:, 0], kind="stable")
    x = coords[order0, 0]
    y = coords[order0, 1] if d > 1 else np.zeros(n)
    yorder = np.argsort(y, kind="stable")
    yrank = np.empty(n, dtype=np.int64)
    yrank[yorder] = np.arange(n)
    height = (n - 1).bit_length()
    # the slots, level by level, keyed by (heap id of the slot's node, 1 at the root; dim-1 rank)
    keys, points = [], []
    for lv, a in enumerate(_node_orders(yorder, height)):
        keys.append(((1 << lv) + (a >> (height - lv))) * n + yrank[a])
        points.append(order0[a])

    # canonical nodes of each box's dim-0 position range, bottom-up: at most two per level
    lo = np.searchsorted(x, box_lo[:, 0]) + (1 << height)
    hi = np.searchsorted(x, box_hi[:, 0], side="right") + (1 << height)
    boxes, nodes = [], []
    for _ in range(height + 1):
        live = lo < hi
        take = np.flatnonzero(live & ((lo & 1) == 1))
        boxes.append(take)
        nodes.append(lo[take])
        lo[take] += 1
        take = np.flatnonzero(live & ((hi & 1) == 1))
        hi[take] -= 1
        boxes.append(take)
        nodes.append(hi[take])
        lo >>= 1
        hi >>= 1
    box = np.concatenate(boxes)
    order = np.argsort(box, kind="stable")
    box, node = box[order], np.concatenate(nodes)[order] * n

    # in each node, the box's dim-1 rank range is one slice of the node's slots
    ys = y[yorder]
    ya = np.searchsorted(ys, box_lo[:, 1]) if d > 1 else np.zeros(m, dtype=np.int64)
    yb = np.searchsorted(ys, box_hi[:, 1], side="right") if d > 1 else np.full(m, n)
    start, end = np.searchsorted(np.concatenate(keys), np.concatenate((node + ya[box], node + yb[box]))).reshape(2, -1)
    keep = end > start
    return np.concatenate(points), box[keep], start[keep], (end - start)[keep]


def box_sums(coords, w, sg: Semigroup, box_lo, box_hi, chunk_pairs: int = _CHUNK_PAIRS):
    """Per closed box [lo, hi]: the number of points inside and the
    semigroup sum of their weights ``w``.

    Returns (counts, values): an int64 array, and an object array holding
    ``sg.reduce_groups`` values, None for an empty box.
    """
    coords = np.asarray(coords, dtype=np.float64)
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    n, d = coords.shape
    m = len(box_lo)
    counts = np.zeros(m, dtype=np.int64)
    values = np.empty(m, dtype=object)
    points, box, start, width = _member_slices(coords, box_lo, box_hi)
    w_slot = np.asarray(w)[points]
    cols = coords[points, 2:].T.copy()  # dims 2.., one contiguous row per dimension, in slot order
    del points
    first = np.searchsorted(box, np.arange(m + 1))  # each box's first pair
    cum = np.concatenate(([0], np.cumsum(width)))  # members expanded before each pair
    box_cum = cum[first]  # ... and before each box
    iota = np.arange(max(chunk_pairs, n))  # a chunk holds at most this many members

    b0 = 0
    while b0 < m:
        b1 = max(b0 + 1, int(np.searchsorted(box_cum, box_cum[b0] + chunk_pairs, side="right")) - 1)
        p0, p1 = first[b0], first[b1]
        ends = box_cum[b0 : b1 + 1] - box_cum[b0]  # each box's first member, then the total
        if ends[-1]:
            pos = np.repeat(start[p0:p1] - (cum[p0:p1] - cum[p0]), width[p0:p1])
            pos += iota[: pos.size]  # slots of the chunk's members, run by run
            if d > 2:
                size = np.diff(ends)
                ok = np.ones(pos.size, dtype=bool)
                for j in range(2, d):
                    c = cols[j - 2][pos]
                    ok &= c <= np.repeat(box_hi[b0:b1, j], size)
                    if np.isfinite(box_lo[b0:b1, j]).any():  # a -inf low admits every member
                        ok &= c >= np.repeat(box_lo[b0:b1, j], size)
                pos = pos[ok]
                ends = np.concatenate(([0], np.cumsum(ok)))[ends]
            cnt = np.diff(ends)
            counts[b0:b1] = cnt
            full = np.flatnonzero(cnt)
            values[b0 + full] = sg.reduce_groups(w_slot[pos], ends[full])
        b0 = b1
    return counts, values
