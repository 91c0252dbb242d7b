"""Batched box sums over a static range tree.

``box_sums`` gives, for many closed boxes at once, the number of points
inside each box and the semigroup sum of their weights.  Both structures
fill their stored sums with it, and the well-distribution checker counts
large sets' sampled rectangles with it.  The sums come as one value
contract for every semigroup: for an int array ``rows``, ``values[rows]``
is a weight array whose ``sg.reduce`` is the sum of those boxes, so a
query folds all its stored sums with one ``reduce``.

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
  is the sum of their widths.  Its stored weight folds one per slice, read
  from a sparse table of the slice's level (Bender and Farach-Colton, "The
  LCA problem revisited", LATIN 2000): with 2^j <= w, the slice [s, s + w)
  has op(T_j[s], T_j[s + w - 2^j]) from two overlapping halves, which an
  idempotent op allows.  Only the current row T_j of one level is live, and
  no (box, member) pair is ever made.
- Every other input.  Each box keeps its slices (``_Reported``), which
  ``members`` expands to the box's members, dropping for d >= 3 those a
  slice holds outside the box in dims 2.. .  A d >= 3 build lists members
  in chunks of about ``_CHUNK_PAIRS`` (box, member) pairs for the counts
  and, with ``op``, the stored weights.  Without ``op`` (id-sets) no
  value is stored: indexing ``_Reported`` lists the boxes' member weights
  then, in O(log n + output) per box for d <= 2, and the caller's one
  ``reduce`` sorts them once.  Lookups are free in the cost model.
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
    return counts, acc


def _ranges(starts: np.ndarray, widths: np.ndarray):
    """The ranges [s, s + w) laid end to end, and where each range begins in
    them (one more entry: the total)."""
    offsets = np.concatenate(([0], np.cumsum(widths)))
    pos = np.repeat(starts - offsets[:-1], widths)
    pos += np.arange(offsets[-1])
    return pos, offsets


class _Reported:
    """Every box's slices, kept to list its members later: the box values
    of a semigroup without an array ``op``, reported on demand.

    ``values[rows]``, for an integer array, is the member weights of those
    boxes end to end (an id-set: their member ids, unsorted, a point once
    per box that holds it), from one ``members`` call.

    ``w_slot`` and ``cols`` hold the weight and the dims-2.. coordinates of
    the point at each slot, level after level.  Box r owns the slices
    ``first[r]`` to ``first[r + 1]`` of ``start`` (a slot) and ``width``.
    """

    def __init__(self, levels, coords: np.ndarray, w: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray):
        n = len(coords)
        slots = n * ((n - 1).bit_length() + 1)
        idx = np.int32 if max(slots, len(box_lo)) <= np.iinfo(np.int32).max else np.int64  # halves what is kept
        self.w_slot = np.empty(slots, dtype=w.dtype)
        self.cols = np.empty((coords[:, 2:].shape[1], slots))
        runs = []
        for lv, (pts, batches) in enumerate(levels):
            self.w_slot[lv * n : (lv + 1) * n] = w[pts]
            self.cols[:, lv * n : (lv + 1) * n] = coords[pts, 2:].T
            runs.extend((box.astype(idx), (start + lv * n).astype(idx), width.astype(idx)) for box, start, width in batches)
        self.lo, self.hi = box_lo[:, 2:], box_hi[:, 2:]
        # counting sort of the slices by box, kept compact: a batch names a box at most once
        self.first = np.cumsum(np.bincount(np.concatenate([r[0] for r in runs]) + 1, minlength=len(box_lo) + 1))
        self.start = np.empty(self.first[-1], dtype=idx)
        self.width = np.empty_like(self.start)
        fill = self.first[:-1].copy()
        while runs:
            box, start, width = runs.pop()
            at = fill[box]
            self.start[at], self.width[at] = start, width
            fill[box] += 1

    def members(self, rows: np.ndarray):
        """The weights of the points inside the boxes ``rows``, box after box,
        and where each box's points begin (one more entry: the total)."""
        first = self.first[:-1][rows]
        sl, sl_at = _ranges(first, self.first[1:][rows] - first)  # the boxes' slices
        pos, pos_at = _ranges(self.start[sl], self.width[sl])
        ends = pos_at[sl_at]
        if len(self.cols):
            size = np.diff(ends)
            ok = np.ones(pos.size, dtype=bool)
            for c, lo, hi in zip(self.cols, self.lo[rows].T, self.hi[rows].T):
                x = c[pos]
                ok &= x <= np.repeat(hi, size)
                if np.isfinite(lo).any():  # a -inf low admits every member
                    ok &= x >= np.repeat(lo, size)
            kept = np.flatnonzero(ok)
            pos, ends = pos[kept], np.searchsorted(kept, ends)  # members kept before each box end
        return self.w_slot[pos], ends

    def __getitem__(self, rows):
        return self.members(np.atleast_1d(rows))[0]


def box_sums(coords, w, sg: Semigroup, box_lo, box_hi):
    """Per closed box [lo, hi]: the number of points inside and the
    semigroup sum of their weights ``w``.

    Returns (counts, values).  ``counts`` is an int64 array; a box is
    empty iff its count is 0, and an empty box's value is never to be read.
    For an int array ``rows`` (repeats allowed), ``values[rows]`` is a
    weight array whose ``sg.reduce`` is the sum of those boxes: under a
    semigroup with an array ``op``, ``values`` is one weight per box; else
    it is a read-only ``_Reported`` view that lists the boxes' member
    weights.  A d >= 3 build expands about ``_CHUNK_PAIRS`` (box, member)
    pairs at once.
    """
    coords = np.asarray(coords, dtype=np.float64)
    box_lo = np.asarray(box_lo, dtype=np.float64)
    box_hi = np.asarray(box_hi, dtype=np.float64)
    w = np.asarray(w)
    m = len(box_lo)
    levels = _level_slices(coords, box_lo, box_hi)
    if coords.shape[1] <= 2 and sg.op is not None:
        return _slice_sums(levels, w, sg.op, m)
    slices = _Reported(levels, coords, w, box_lo, box_hi)
    counts = np.diff(np.concatenate(([0], np.cumsum(slices.width)))[slices.first])  # exact for d <= 2
    values = np.zeros(m, dtype=w.dtype) if sg.op is not None else slices
    if coords.shape[1] > 2:  # counts, and numeric values, from the members in chunks cut at box boundaries
        before = np.concatenate(([0], np.cumsum(counts)))
        b0 = 0
        while b0 < m:
            b1 = max(b0 + 1, int(np.searchsorted(before, before[b0] + _CHUNK_PAIRS, side="right")) - 1)
            wm, ends = slices.members(np.arange(b0, b1))
            counts[b0:b1] = np.diff(ends)
            if sg.op is not None:
                full = np.flatnonzero(counts[b0:b1])
                values[b0 + full] = sg.op.reduceat(wm, ends[full])
            b0 = b1
    return counts, values
