"""Linear-storage structure for (d+k)-sided queries over idempotent semigroups.

Queries are two-sided in the first k dimensions and upper-bounded in the
rest.  Each point of a collectively well-distributed family, indexed by a
depth tuple in {1..h}^k, is turned into an anchored box whose j-th side
runs from the left boundary of the depth-i_j tree neighbor to the point
(mirrored per orientation); the stored sum is the input weight inside that
box.  Construction computes each block's boxes with array arithmetic, then
fills the count and value of every box of every block in one batched
``rangetree.box_sums`` call.  A query splits at tree midpoints into up to
2^k anchored pieces; each piece is tiled by balanced-prefix-cover
intervals, candidate boxes are picked per cover pair, and the last d-k
dimensions reduce to a dominance cover whose leftovers are singletons.

All stored sums live in one flat index, ``_SumIndex``.  Its one primitive,
``inside``, finds the sums inside a box: one ``searchsorted`` on dim 0, a
vectorized mask, and row ids in block order, so ties break as a per-block
scan would break them.  A piece makes one ``inside`` call with the loosest
filter of all its cover tuples; a (tuple x row) mask of the spans then gives
each tuple its candidates, still in block order.  ``inside`` also finds the
sums that absorb leftovers and the exact-cover oracle's sums.

The query tail works on arrays.  Leftovers that a used sum covers are
dropped, and a greedy reuses stored sums that absorb two or more of the
rest; both test containment through ``_pairs_inside``, which sorts the
leftovers by dim 0 and expands only the (box, leftover) pairs inside each
box's dim-0 window.  The final leftovers enter the fold as one batched
``singleton_value`` (the cost still counts each of them).

Query bounds may reach outside the unit cube the trees span: the split is
found on clipped bounds, the pieces keep the raw ones, and points beyond
the trees fall in a leaf tail and are answered as singletons.

Every candidate passes an explicit box-within-query filter before use.  The
construction almost guarantees containment, but a candidate whose tree node
is leftmost inside the piece's subtree can anchor one slab too far left;
the filter drops it and singletons pick up the slack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cwd import CwdFamily, build_cwd_family
from .dominance import dominance_cover
from .dyadic import DyadicTree, Node, balanced_prefix_cover, build_dyadic_tree, suffix_cover
from .errors import MalformedQuery
from .geometry import NEG_INF, Box, QueryAnswer
from .gridindex import GridIndex
from .points import WeightedPointSet
from .rangetree import box_sums
from .semigroup import Semigroup, fold_values, singleton_value

__all__ = [
    "IdsConfig",
    "IdsStructure",
    "AnchoredPiece",
    "box_of",
    "build_ids",
    "decompose_query",
    "answer_anchored",
    "query",
]

_R, _L = "R", "L"


@dataclass(frozen=True)
class IdsConfig:
    n: int
    d: int
    k: int
    h: int  # ceil(log2 n)
    N: int  # max(1, n // h**k)

    @staticmethod
    def for_input(n: int, d: int, k: int) -> "IdsConfig":
        if not 1 <= k <= d - 1:
            raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")
        h = max(1, math.ceil(math.log2(n)))
        return IdsConfig(n=n, d=d, k=k, h=h, N=max(1, n // h**k))


class _SumIndex:
    """Every stored sum in one structure of arrays.

    Rows are in block order: ``IdsStructure.blocks`` order (orientation, then
    family index), then the dim-0 point coordinate.  ``bounds`` holds each
    box as one row [lo | hi]; ``box_lo`` and ``box_hi`` are views of its
    halves.  ``counts`` and ``values`` hold the number and the semigroup sum
    of the input points inside each box, from one ``box_sums`` call.
    ``by_x0[o]`` is (rows, keys): the rows of orientation o, or of all
    orientations for None, sorted by their dim-0 point coordinate.
    """

    def __init__(self, k: int, parts: list, point_coords: np.ndarray, w: np.ndarray, sg: Semigroup):
        # parts: (orientation, index, coords, box_lo, box_hi) per non-empty block
        sizes = [len(p[2]) for p in parts]
        ends = np.cumsum([0] + sizes).tolist()
        self.block_ranges = [((p[0], p[1]), a, b) for p, a, b in zip(parts, ends, ends[1:])]
        self.coords, box_lo, box_hi = (np.concatenate(c) for c in list(zip(*parts))[2:])
        self.counts, self.values = box_sums(point_coords, w, sg, box_lo, box_hi)
        d = self.coords.shape[1]
        self.bounds = np.hstack((box_lo, box_hi))
        self.box_lo, self.box_hi = self.bounds[:, :d], self.bounds[:, d:]
        self.depth = np.repeat(np.asarray([p[1] for p in parts]).reshape(-1, k), sizes, axis=0)
        x0 = self.coords[:, 0]
        self.by_x0 = {}
        for o in [None, *itertools.product((_R, _L), repeat=k)]:
            blocks = [np.arange(a, b) for (orient, _), a, b in self.block_ranges if o in (None, orient)]
            rows = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
            rows = rows[np.argsort(x0[rows], kind="stable")]
            self.by_x0[o] = rows, x0[rows]

    def inside(self, qlo, qhi, min_count: int, *, orient=None, depths=None, spans=None, reach=None) -> np.ndarray:
        """Row ids, in block order, of the sums with at least ``min_count``
        members whose box sits inside the closed box [qlo, qhi].

        Optional filters: ``orient`` keeps one orientation; ``depths`` =
        (lo, hi) keeps family indices within [lo, hi] in the two-sided dims;
        ``spans`` = (a, b), which needs ``orient``, keeps boxes with lo <= a
        and hi >= b there; ``reach`` = (lmin, lmax) keeps boxes meeting it.
        """
        # every filter is a range on the [lo | hi] row, floor <= row <= ceil;
        # as lo <= hi, a box inside the query has both ends in [qlo, qhi]
        d = len(qlo)
        floor, ceil = np.concatenate((qlo, qlo)), np.concatenate((qhi, qhi))
        if spans is not None:
            k = len(spans[0])
            ceil[:k] = np.minimum(ceil[:k], spans[0])
            floor[d : d + k] = np.maximum(floor[d : d + k], spans[1])
        if reach is not None:
            floor[d:] = np.maximum(floor[d:], reach[0])
            ceil[:d] = np.minimum(ceil[:d], reach[1])
        # the sort key, a row's dim-0 point coordinate, is its box's hi end (R) or lo end (L)
        order, x0 = self.by_x0[orient]
        ends = [0, d] if orient is None else [d if orient[0] == _R else 0]
        rows = order[np.searchsorted(x0, floor[ends].min()) : np.searchsorted(x0, ceil[ends].max(), side="right")]
        if rows.size == 0:
            return rows
        b = self.bounds[rows]
        ok = ((b >= floor) & (b <= ceil)).all(axis=1) & (self.counts[rows] >= min_count)
        if depths is not None:
            dep = self.depth[rows]
            ok &= ((dep >= depths[0]) & (dep <= depths[1])).all(axis=1)
        return np.sort(rows[ok])


class _Block:
    """One (orientation, family index) block: views into the flat index."""

    __slots__ = ("coords", "box_lo", "box_hi", "counts", "values")

    def __init__(self, sums: _SumIndex, start: int, stop: int):
        for name in self.__slots__:
            setattr(self, name, getattr(sums, name)[start:stop])

    def __len__(self):
        return len(self.counts)


def box_of(x, index, orientation, trees: list[DyadicTree]) -> Box | None:
    """Anchored box of a family point; None when the needed neighbor is missing."""
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    k = len(index)
    lo = [NEG_INF] * d
    hi = list(x)
    for j in range(k):
        node = trees[j].node_containing(float(x[j]), index[j])
        if orientation[j] == _R:
            nb = trees[j].left_neighbor(node)
            if nb is None:
                return None
            lo[j] = trees[j].a(nb)
            hi[j] = float(x[j])
        else:
            nb = trees[j].right_neighbor(node)
            if nb is None:
                return None
            lo[j] = float(x[j])
            hi[j] = trees[j].b(nb)
    return Box(tuple(lo), tuple(hi))


class IdsStructure:
    def __init__(self, points: WeightedPointSet, sg: Semigroup, config: IdsConfig, weights=None):
        self.points = points
        self.sg = sg
        self.config = config
        self._w = sg.weights(points, weights)
        self.trees = [build_dyadic_tree(0.0, 1.0, config.h) for _ in range(config.k)]
        self.family: CwdFamily = build_cwd_family(config.N, config.h, config.k, config.d)
        self.grid = GridIndex(points.coords)
        self._build_blocks()

    # -- construction -----------------------------------------------------

    def _build_blocks(self) -> None:
        cfg = self.config
        parts = []
        for orient in itertools.product((_R, _L), repeat=cfg.k):
            for index, ps in self.family.sets.items():
                part = self._build_one_block(orient, index, ps)
                if part is not None:
                    parts.append(part)
        self.sums = _SumIndex(cfg.k, parts, self.points.coords, self._w, self.sg)
        self.blocks = {key: _Block(self.sums, start, stop) for key, start, stop in self.sums.block_ranges}
        self.num_boxes = len(self.sums.counts)

    def _build_one_block(self, orient, index, ps: WeightedPointSet):
        """The block's anchored boxes, sorted by the dim-0 point coordinate:
        (orient, index, points, box_lo, box_hi), or None when no family point
        has the neighbor its box needs."""
        if len(ps) == 0:
            return None
        k = self.config.k
        pts = ps.coords
        spans = np.asarray([1 << dep for dep in index], dtype=np.int64)
        ranks = np.minimum((pts[:, :k] * spans).astype(np.int64), spans - 1)
        defined = np.ones(len(ps), dtype=bool)
        for j in range(k):
            if orient[j] == _R:
                defined &= ranks[:, j] >= 1
            else:
                defined &= ranks[:, j] <= spans[j] - 2
        if not np.any(defined):
            return None
        pts = pts[defined]
        ranks = ranks[defined]
        box_lo = np.full(pts.shape, NEG_INF)
        box_hi = pts.copy()
        for j in range(k):
            w = 1.0 / spans[j]
            if orient[j] == _R:
                box_lo[:, j] = (ranks[:, j] - 1) * w  # anchor
            else:
                box_lo[:, j] = pts[:, j]
                box_hi[:, j] = (ranks[:, j] + 2) * w  # anchor
        order = np.argsort(pts[:, 0], kind="stable")
        return orient, index, pts[order], box_lo[order], box_hi[order]

    # -- reporting ---------------------------------------------------------

    @property
    def s_plus(self) -> int:
        """Storage: materialized sums with at least two member points."""
        return int(np.sum(self.sums.counts >= 2))

    def query(self, q: Box, return_audit: bool = False):
        return query(self, q, return_audit=return_audit)


def build_ids(points: WeightedPointSet, k: int, sg: Semigroup, weights=None) -> IdsStructure:
    if len(points) < 4:
        raise ValueError("need at least 4 points")
    cfg = IdsConfig.for_input(len(points), points.d, k)
    return IdsStructure(points, sg, cfg, weights)


@dataclass(frozen=True)
class AnchoredPiece:
    """One of the 2^k midpoint-split pieces, tagged with its orientation."""

    orientation: tuple[str, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    vprime: tuple[Node, ...]
    vnodes: tuple[Node, ...]  # child of vprime on the piece's side
    query_lo: tuple[float, ...]
    query_hi: tuple[float, ...]


def _validate_query(struct: IdsStructure, q: Box):
    cfg = struct.config
    if q.dims != cfg.d:
        raise MalformedQuery(f"query has {q.dims} dims, structure has {cfg.d}")
    if any(math.isnan(v) for v in q.lo + q.hi):
        raise MalformedQuery("query bounds must not be NaN")
    for i in range(cfg.k):
        if q.lo[i] == NEG_INF:
            raise MalformedQuery(f"dimension {i} must be two-sided")
    for i in range(cfg.k, cfg.d):
        if q.lo[i] != NEG_INF:
            raise MalformedQuery(f"dimension {i} must be upper-bounded only")


def decompose_query(struct: IdsStructure, q: Box):
    """Split q at the highest tree midpoints into anchored pieces.

    Returns (pieces, singleton_only).  When some two-sided interval contains
    no node midpoint the whole query falls back to singleton enumeration.
    The split is searched on the bounds clipped to the trees' [0, 1]; the
    pieces keep the raw bounds, so points outside the unit cube stay in.
    """
    _validate_query(struct, q)
    cfg = struct.config
    lo_eff = [max(l, 0.0) for l in q.lo[: cfg.k]]
    hi_eff = [min(h, 1.0) for h in q.hi]
    if any(lo_eff[i] > hi_eff[i] for i in range(cfg.k)) or any(h < 0.0 for h in hi_eff):
        return [], True  # no midpoint inside: the singleton path answers
    splits: list[tuple[Node, float]] = []
    for i in range(cfg.k):
        tree = struct.trees[i]
        node = Node(0, 0)
        found = None
        while not tree.is_leaf(node):
            mid = tree.m(node)
            if lo_eff[i] <= mid <= hi_eff[i]:
                found = node
                break
            node = tree.left_child(node) if hi_eff[i] < mid else tree.right_child(node)
        if found is None:
            return [], True
        splits.append((found, tree.m(found)))
    pieces = []
    for orient in itertools.product((_L, _R), repeat=cfg.k):
        plo, phi, vprime, vnodes = list(q.lo), list(q.hi), [], []
        for i, side in enumerate(orient):
            vp, mid = splits[i]
            vprime.append(vp)
            if side == _L:
                phi[i] = mid
                vnodes.append(struct.trees[i].left_child(vp))
            else:
                plo[i] = mid
                vnodes.append(struct.trees[i].right_child(vp))
        pieces.append(
            AnchoredPiece(
                orientation=orient,
                lo=tuple(plo),
                hi=tuple(phi),
                vprime=tuple(vprime),
                vnodes=tuple(vnodes),
                query_lo=tuple(q.lo),
                query_hi=tuple(q.hi),
            )
        )
    return pieces, False


def _leaf_under(tree: DyadicTree, corner: float, root: Node) -> Node:
    """The leaf holding ``corner``, clamped into ``root``'s subtree.

    A corner beyond the tree, or an L corner on the split midpoint (whose
    half-open slab lies right of it), lands in the subtree's edge leaf, so
    points past it are leaf-tail singletons.
    """
    rank = tree.locate_leaf(min(max(corner, 0.0), 1.0)).rank
    shift = tree.height - root.depth
    return Node(tree.height, min(max(rank, root.rank << shift), ((root.rank + 1) << shift) - 1))


def _piece_segments(struct: IdsStructure, piece: AnchoredPiece, i: int):
    """Ascending interval tiling of the piece's i-th side.

    Returns (seg_lo, labels, pairs): cover segments labelled by their pair
    index, the leaf tail labelled -1; labels align with seg_lo bins.
    """
    tree = struct.trees[i]
    root = piece.vnodes[i]
    if piece.orientation[i] == _R:
        leaf = _leaf_under(tree, piece.hi[i], root)
        pairs = balanced_prefix_cover(tree, leaf, root=root)
        seg_lo = [tree.a(p.u) for p in pairs] + [tree.a(leaf)]
        labels = list(range(len(pairs))) + [-1]
    else:
        corner = piece.lo[i]
        leaf = _leaf_under(tree, corner, root)
        pairs = suffix_cover(tree, leaf, root=root)
        # ascending order: tail first, then covers from deepest up
        seg_lo = [corner] + [tree.a(p.u) for p in reversed(pairs)]
        labels = [-1] + list(range(len(pairs) - 1, -1, -1))
    return np.asarray(seg_lo), labels, pairs


def _tuple_candidates(struct: IdsStructure, piece: AnchoredPiece, dim_pairs, tuples: np.ndarray, qlo, qhi):
    """Usable stored sums of every cover-pair tuple of one piece.

    ``tuples`` holds one row of pair indices into ``dim_pairs`` per tuple.
    A sum works for a tuple iff its box spans the tuple's interval in every
    two-sided dimension and sits inside the containment box (the full query,
    or just the piece when answering a piece standalone); coverage of a
    target then reduces to dominance in the remaining dimensions.  Family
    indices deeper than depth(u_i)+1 cannot span an interval of u_i's width
    (a depth-i box is at most 2^(1-i) wide there), so the lookup keeps only
    those levels and the span test alone decides per tuple.

    One flat-index lookup with the loosest span and depth cap over the
    tuples gives a pool that every tuple's own spans narrow; returns (pool
    rows in block order, tuple x pool mask), so tuple t's candidates are
    ``pool[mask[t]]``.
    """
    k = len(dim_pairs)
    a, b = np.empty(tuples.shape), np.empty(tuples.shape)
    cap = np.empty(k, dtype=np.int64)
    for i, pairs in enumerate(dim_pairs):
        ab = np.asarray([struct.trees[i].interval(p.u) for p in pairs])[tuples[:, i]]
        a[:, i], b[:, i] = ab[:, 0], ab[:, 1]
        cap[i] = np.asarray([p.u.depth for p in pairs])[tuples[:, i]].max() + 1
    sums = struct.sums
    depths = np.asarray([v.depth for v in piece.vnodes]), np.minimum(cap, struct.config.h)
    pool = sums.inside(qlo, qhi, 1, orient=piece.orientation, depths=depths, spans=(a.max(axis=0), b.min(axis=0)))
    mask = np.ones((len(tuples), pool.size), dtype=bool)
    for j in range(k):
        mask &= sums.box_lo[pool, j] <= a[:, j, None]
        mask &= sums.box_hi[pool, j] >= b[:, j, None]
    return pool, mask


class _CoverState:
    """Accumulates one query's cover: used sum rows, their values, leftovers."""

    def __init__(self, sums: _SumIndex, qlo, qhi, audit):
        self.sums = sums
        self.qlo = np.asarray(qlo)
        self.qhi = np.asarray(qhi)
        self.audit = audit
        self.parts: list = []
        self.used: list[int] = []
        self.leftover: list = []

    def take(self, r: int) -> None:
        lo, hi = self.sums.box_lo[r], self.sums.box_hi[r]
        if self.audit is not None:
            self.audit.append(Box(tuple(lo), tuple(hi)))
        if np.any(lo < self.qlo) or np.any(hi > self.qhi):
            raise AssertionError("used sum escapes the query box")
        self.parts.append(self.sums.values[r])
        self.used.append(r)


def _process_piece(struct: IdsStructure, piece: AnchoredPiece, state: _CoverState) -> None:
    """Per-tuple dominance covers of one anchored piece (no singletons yet)."""
    k = struct.config.k
    target_idx = struct.grid.points_in_box(piece.lo, piece.hi)
    if target_idx.size == 0:
        return
    tcoords = struct.points.coords[target_idx]
    dim_labels = np.empty((target_idx.size, k), dtype=np.int64)
    dim_pairs = []
    for i in range(k):
        seg_lo, labels, pairs = _piece_segments(struct, piece, i)
        pos = np.clip(np.searchsorted(seg_lo, tcoords[:, i], side="right") - 1, 0, len(labels) - 1)
        dim_labels[:, i] = np.asarray(labels)[pos]
        dim_pairs.append(pairs)
    singles = np.any(dim_labels == -1, axis=1)
    state.leftover.append(target_idx[singles])  # leaf-tail points
    grouped = target_idx[~singles]
    glabels = dim_labels[~singles]
    if not grouped.size:
        return
    dims = tuple(len(p) for p in dim_pairs)
    keys = np.ravel_multi_index(tuple(glabels.T), dims)  # lexicographic in the label tuple
    order = np.argsort(keys, kind="stable")  # by tuple, each tuple's rows in index order
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys[order])) + 1))
    tuples = np.stack(np.unravel_index(keys[order[starts]], dims), axis=1)
    pool, mask = _tuple_candidates(struct, piece, dim_pairs, tuples, state.qlo, state.qhi)
    gproj = tcoords[~singles][:, k:]
    for t, (s0, s1) in enumerate(zip(starts.tolist(), [*starts[1:].tolist(), order.size])):
        rows = order[s0:s1]
        cand_rows = pool[mask[t]]
        m_idx, covered, used = dominance_cover(struct.sums.coords[cand_rows, k:], gproj[rows])
        for mi in m_idx[used]:
            state.take(int(cand_rows[mi]))
        state.leftover.append(grouped[rows[~covered]])


# (box, point) pairs expanded at once while testing containment
_CHUNK_CELLS = 1 << 16


def _pairs_inside(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, min_count: int, chunk_cells: int):
    """Closed containment of ``pts`` in the boxes, windowed on dim 0.

    The points are sorted by dim 0 and each box's window of that order is
    found by two ``searchsorted`` calls; only the (box, point) pairs inside
    a window are expanded and tested on the other dimensions.  Boxes whose
    window holds fewer than ``min_count`` points are skipped.  Yields, in
    box order, chunks of about ``chunk_cells`` pairs and at least one box:
    (box rows, per-pair index into them, per-pair point index), for the
    pairs with the point inside the box.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    cols = pts[order].T.copy()  # sorted points, one contiguous row per dimension
    start = np.searchsorted(cols[0], box_lo[:, 0])
    width = np.searchsorted(cols[0], box_hi[:, 0], side="right") - start  # lo <= hi: never negative
    boxes = np.nonzero(width >= min_count)[0]
    ends = np.cumsum(width[boxes])
    s0 = 0
    while s0 < boxes.size:
        done = ends[s0] - width[boxes[s0]]  # pairs in earlier chunks
        s1 = max(s0 + 1, int(np.searchsorted(ends, done + chunk_cells, side="right")))
        rows = boxes[s0:s1]
        wid = width[rows]
        pos = np.repeat(start[rows] + wid - np.cumsum(wid), wid) + np.arange(wid.sum())
        lo, hi = box_lo[rows].T, box_hi[rows].T
        ok = np.ones(pos.size, dtype=bool)
        for j in range(1, len(cols)):
            c = cols[j][pos]
            ok &= (c >= np.repeat(lo[j], wid)) & (c <= np.repeat(hi[j], wid))
        yield rows, np.repeat(np.arange(rows.size), wid)[ok], order[pos[ok]]
        s0 = s1


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """Boolean rows as rows of uint64 bit words, zero-padded to a word."""
    pad = -mask.shape[1] % 64
    return np.packbits(np.pad(mask, ((0, 0), (0, pad))), axis=1, bitorder="little").view(np.uint64)


def _greedy_cover(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, chunk_cells: int = _CHUNK_CELLS):
    """Greedy cover of ``pts`` by boxes: while some box holds two or more
    uncovered points, take the first box holding the most.  Returns (picked
    box rows in pick order, per-point uncovered mask).

    Exact and incremental.  Containment comes from ``_pairs_inside``, about
    ``chunk_cells`` (box, point) pairs at a time, counted per box; boxes
    holding fewer than two points are dropped: gains only fall, so they are
    never picked.  Only the rest get a bit row, packed in uint64 words, and
    a pick subtracts from each gain just the popcount of the points it
    newly covers.
    """
    m = len(pts)
    rows, bits, gains = [], [], []
    for boxes, local, pt in _pairs_inside(pts, box_lo, box_hi, 2, chunk_cells):
        cnt = np.bincount(local, minlength=boxes.size)
        keep = cnt >= 2
        rank = np.cumsum(keep) - 1
        sel = keep[local]
        inside = np.zeros((rank[-1] + 1, m), dtype=bool)
        inside[rank[local[sel]], pt[sel]] = True
        rows.append(boxes[keep])
        bits.append(_pack_rows(inside))
        gains.append(cnt[keep])
    if not rows:
        return [], np.ones(m, dtype=bool)
    rows, bits, gains = np.concatenate(rows), np.concatenate(bits), np.concatenate(gains)
    alive = _pack_rows(np.ones((1, m), dtype=bool))[0]
    picks: list[int] = []
    while gains.size:
        best = int(np.argmax(gains))
        if gains[best] < 2:
            break
        picks.append(int(rows[best]))
        newly = bits[best] & alive
        alive ^= newly
        w = np.nonzero(newly)[0]
        gains -= np.bitwise_count(bits[:, w] & newly[w]).sum(axis=1, dtype=np.int64)
    uncovered = np.unpackbits(alive.view(np.uint8), count=m, bitorder="little").astype(bool)
    return picks, uncovered


def _compress(struct: IdsStructure, state: _CoverState) -> np.ndarray:
    """Resolve leftovers: drop those a used sum already covers, reuse any
    stored sum inside the query that absorbs two or more of the rest
    (``_greedy_cover``), then fall back to singletons.

    Both steps test containment through ``_pairs_inside``.  The pool is one
    flat-index lookup: sums with two or more members inside the query that
    meet the leftovers' bounding box.  Strictly reduces cost; exactness and
    containment are unaffected because absorption is a full-coordinate box
    test against sums already known to sit inside the query.
    """
    leftover_idx = np.concatenate([np.empty(0, dtype=np.int64), *state.leftover])
    pts = struct.points.coords[leftover_idx]
    sums = struct.sums
    if state.used:
        used = np.asarray(state.used)
        covered = np.zeros(leftover_idx.size, dtype=bool)
        for _, _, pt in _pairs_inside(pts, sums.box_lo[used], sums.box_hi[used], 1, _CHUNK_CELLS):
            covered[pt] = True
        leftover_idx, pts = leftover_idx[~covered], pts[~covered]
    if leftover_idx.size < 2:
        return leftover_idx
    rows = sums.inside(state.qlo, state.qhi, 2, reach=(pts.min(axis=0), pts.max(axis=0)))
    if rows.size == 0:
        return leftover_idx
    picks, uncovered = _greedy_cover(pts, sums.box_lo[rows], sums.box_hi[rows])
    for p in picks:
        state.take(int(rows[p]))
    return leftover_idx[uncovered]


def _finish(struct: IdsStructure, state: _CoverState) -> QueryAnswer:
    leftover_idx = _compress(struct, state)
    if leftover_idx.size:
        state.parts.append(singleton_value(struct.sg, leftover_idx, struct._w))
    value = fold_values(state.parts, struct.sg) if state.parts else None
    return QueryAnswer(value, sums_used=len(state.used), singletons_used=int(leftover_idx.size))


def answer_anchored(struct: IdsStructure, piece: AnchoredPiece, audit: list | None = None) -> QueryAnswer:
    """Standalone piece answer: covers exactly the piece's points, so the
    containment box is the piece itself (inside query() the shared pass uses
    the whole query box instead, letting sums straddle the split)."""
    state = _CoverState(struct.sums, piece.lo, piece.hi, audit)
    _process_piece(struct, piece, state)
    return _finish(struct, state)


def _singleton_only_answer(struct: IdsStructure, q: Box) -> QueryAnswer:
    idx = struct.grid.points_in_box(q.lo, q.hi)
    return QueryAnswer(singleton_value(struct.sg, idx, struct._w), sums_used=0, singletons_used=int(idx.size))


def usable_sums(struct: IdsStructure, q: Box, min_members: int = 2):
    """Stored sums whose box sits inside q, as (value, box, count) triples.

    The exact-cover oracle takes these as its available sums; sums covering
    fewer than ``min_members`` points never beat singletons.
    """
    sums = struct.sums
    rows = sums.inside(np.asarray(q.lo), np.asarray(q.hi), min_members)
    return [(sums.values[r], Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r])), int(sums.counts[r])) for r in rows]


def query(struct: IdsStructure, q: Box, return_audit: bool = False):
    """Anchored-piece covers plus one shared compression pass (or the
    singleton fallback when no midpoint splits the query)."""
    audit: list | None = [] if return_audit else None
    pieces, singleton_only = decompose_query(struct, q)
    if singleton_only:
        ans = _singleton_only_answer(struct, q)
        return (ans, audit) if return_audit else ans
    state = _CoverState(struct.sums, pieces[0].query_lo, pieces[0].query_hi, audit)
    for piece in pieces:
        _process_piece(struct, piece, state)
    ans = _finish(struct, state)
    return (ans, audit) if return_audit else ans
