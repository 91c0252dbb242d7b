"""Batched box sums over a static range tree.

``box_sums`` gives, for many closed boxes at once, the number of points
inside each box and the semigroup sum of their weights.  Both structures
fill their stored sums with it.

The tree is the classic static range tree (Bentley, "Multidimensional
divide-and-conquer", CACM 1980; Lueker, "A data structure for orthogonal
range queries", FOCS 1978) over dim-0 ranks, with the points of each node
ordered by dim-1 rank.  A box's dim-0 rank range splits into at most two
canonical nodes per level, and in each of them its dim-1 rank range is one
contiguous slice.  The tree is walked one level at a time.  A level's nodes
sit in one array sorted by a (node, dim-1 rank) key, so one
``searchsorted`` over that level finds the slices of all boxes.  A slice
that starts at the node's first dim-1 rank needs no search; nor does one
that ends past its last rank.  So a ``-inf`` dim-1 low, as every stored box
of a k = 1 structure and of a dominance structure has, costs no search.

Two paths turn the slices into sums; the points' dimension and the
semigroup choose one.

- Points of at most two dimensions, under a semigroup with an array ``op``
  (max, or).  A box holds exactly the members of its slices, so its count
  is the sum of their widths.  Its value folds one value per slice, read
  from a sparse table of the slice's level (Bender and Farach-Colton, "The
  LCA problem revisited", LATIN 2000): with 2^j <= w, the slice [s, s + w)
  has op(T_j[s], T_j[s + w - 2^j]) from two overlapping halves, which an
  idempotent op allows.  Only the current row T_j of one level is live, and
  no (box, member) pair is ever made.
- Every other input.  Slices are expanded to members in chunks of about
  ``_CHUNK_PAIRS`` (box, member) pairs cut at box boundaries, dims 2.. are
  tested on the members, and ``Semigroup.reduce_groups`` folds each box's
  members into its value.  An id-set value is its member list, so it needs
  the members themselves.  For d >= 3 a slice also holds points outside the
  box in dims 2.., which only the per-member test removes.
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


def _level_slices(coords: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray):
    """Build the tree and cut every box into slices of it, one level at a time.

    Yields per level, top down: the point held by each of the level's n
    slots, and two (box, start, width) batches of non-empty slices, one per
    side of the boxes' canonical nodes.  A batch names a box at most once.
    ``start`` is a slot of the level.
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
    # each box's dim-0 leaf range [lo, hi) as heap ids, and its dim-1 rank range [ya, yb)
    lo = np.searchsorted(x, box_lo[:, 0]) + (1 << height)
    hi = np.searchsorted(x, box_hi[:, 0], side="right") + (1 << height)
    ys = y[yorder]
    ya = np.searchsorted(ys, box_lo[:, 1]) if d > 1 else np.zeros(m, dtype=np.int64)
    yb = np.searchsorted(ys, box_hi[:, 1], side="right") if d > 1 else np.full(m, n)

    for lv, a in enumerate(_node_orders(yorder, height)):
        t = height - lv  # a level-lv node spans 2^t positions
        keys = (a >> t) * n + yrank[a]  # (node, dim-1 rank) of each slot, ascending
        # the bottom-up canonical split has narrowed [lo, hi) to [ceil(lo / 2^t), floor(hi / 2^t))
        # here; it takes node cl when cl is odd, and node ch - 1 when ch is odd
        cl, ch = -(-lo >> t), hi >> t
        live = cl < ch
        batches = []
        for take, node in ((live & ((cl & 1) == 1), cl), (live & ((ch & 1) == 1), ch - 1)):
            box = np.flatnonzero(take)
            first = (node[box] - (1 << lv)) << t  # the node's first slot
            start = first.copy()
            end = np.minimum(first + (1 << t), n)
            for bound, edge, out in ((ya[box], 0, start), (yb[box], n, end)):
                cut = np.flatnonzero(bound != edge)  # the rest start or end at the node's edge
                out[cut] = np.searchsorted(keys, (first[cut] >> t) * n + bound[cut])
            keep = end > start
            batches.append((box[keep], start[keep], (end - start)[keep]))
        yield order0[a], batches


def _slice_sums(levels, w: np.ndarray, op: np.ufunc, m: int):
    """Counts and values of idempotent ``op`` sums from the slices alone."""
    counts = np.zeros(m, dtype=np.int64)
    acc = np.zeros(m, dtype=w.dtype)
    for points, batches in levels:
        box, start, width = (np.concatenate(c) for c in zip(*batches))
        if not box.size:
            continue
        # sparse table rows: T_0 = the level's weights, T_j[s] = op of slots [s, s + 2^j)
        j_of = np.frexp(width)[1] - 1  # the row that answers each slice: 2^j <= width < 2^(j+1)
        by_j = np.argsort(j_of, kind="stable")
        ends = np.searchsorted(j_of[by_j], np.arange(int(j_of.max()) + 2))
        v = np.empty(box.size, dtype=w.dtype)
        row = w[points]
        for j in range(len(ends) - 1):
            if j:
                row = op(row[: -(1 << (j - 1))], row[1 << (j - 1) :])  # T_j from T_(j-1)
            s = by_j[ends[j] : ends[j + 1]]
            v[s] = op(row[start[s]], row[start[s] + width[s] - (1 << j)])
        # fold into the boxes, one batch at a time: a batch names a box at most once
        cut = len(batches[0][0])
        for b, bv, bw in ((box[:cut], v[:cut], width[:cut]), (box[cut:], v[cut:], width[cut:])):
            acc[b] = np.where(counts[b] > 0, op(acc[b], bv), bv)
            counts[b] += bw
    values = np.empty(m, dtype=object)
    full = np.flatnonzero(counts)
    values[full] = acc[full].astype(object)  # Python scalars, as reduce_groups gives
    return counts, values


def _expanded_sums(levels, coords, w, sg: Semigroup, box_lo, box_hi, chunk_pairs: int):
    """Counts and values from the members of every slice, expanded in chunks."""
    n, d = coords.shape
    m = len(box_lo)
    # the weight and the dims-2.. coordinates (one contiguous row per dimension) of every
    # slot of every level, level after level
    slots = n * ((n - 1).bit_length() + 1)
    w = np.asarray(w)
    w_slot = np.empty(slots, dtype=w.dtype)
    cols = np.empty((coords[:, 2:].shape[1], slots))
    slices = []
    for lv, (points, batches) in enumerate(levels):
        w_slot[lv * n : (lv + 1) * n] = w[points]
        cols[:, lv * n : (lv + 1) * n] = coords[points, 2:].T
        slices.append([(box, start + lv * n, width) for box, start, width in batches])
    # levels bottom up, so each box's members come in the order of the bottom-up split
    box, start, width = (np.concatenate(c) for c in zip(*(b for level in slices[::-1] for b in level)))
    del slices
    order = np.argsort(box, kind="stable")
    box, start, width = box[order], start[order], width[order]
    del order

    counts = np.zeros(m, dtype=np.int64)
    values = np.empty(m, dtype=object)
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


def box_sums(coords, w, sg: Semigroup, box_lo, box_hi, chunk_pairs: int = _CHUNK_PAIRS):
    """Per closed box [lo, hi]: the number of points inside and the
    semigroup sum of their weights ``w``.

    Returns (counts, values): an int64 array, and an object array holding
    ``sg.reduce_groups`` values, None for an empty box.  ``chunk_pairs``
    bounds the (box, member) pairs expanded at once where the members are
    expanded (id-sets, d >= 3).
    """
    coords = np.asarray(coords, dtype=np.float64)
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    levels = _level_slices(coords, box_lo, box_hi)
    if coords.shape[1] <= 2 and sg.op is not None:
        return _slice_sums(levels, np.asarray(w), sg.op, len(box_lo))
    return _expanded_sums(levels, coords, w, sg, box_lo, box_hi, chunk_pairs)
