"""Linear-storage structure for (d+k)-sided queries over idempotent semigroups.

Queries are two-sided in the first k dimensions and upper-bounded in the
rest.  Each point of a collectively well-distributed family, indexed by a
depth tuple in {1..h}^k, is turned into an anchored box whose j-th side
runs from the left boundary of the depth-i_j tree neighbor to the point
(mirrored per orientation); the stored sum is the input weight inside that
box.  A query splits at tree midpoints into up to 2^k anchored pieces; each
piece is tiled by balanced-prefix-cover intervals, candidate boxes are
picked per cover pair, and the last d-k dimensions reduce to a dominance
cover whose leftovers are singletons.

All stored sums live in one flat index, ``_SumIndex``.  Its one primitive,
``inside``, finds the sums inside a box for the candidates of a cover pair,
for the sums that absorb leftovers, and for the exact-cover oracle: one
``searchsorted`` on dim 0, a vectorized mask, and row ids in block order,
so ties break as a per-block scan would break them.

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
from .semigroup import Semigroup, canonical_weights, fold_values, singleton_value

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
    halves.  ``by_x0[o]`` is (rows, keys): the rows of orientation o, or of
    all orientations for None, sorted by their dim-0 point coordinate.
    """

    def __init__(self, k: int, parts: list):
        # parts: (orientation, index, coords, box_lo, box_hi, counts, values) per non-empty block
        sizes = [len(p[2]) for p in parts]
        ends = np.cumsum([0] + sizes).tolist()
        self.block_ranges = [((p[0], p[1]), a, b) for p, a, b in zip(parts, ends, ends[1:])]
        self.coords, box_lo, box_hi, self.counts, self.values = (np.concatenate(c) for c in list(zip(*parts))[2:])
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
        self._w = canonical_weights(sg, points, weights)
        self.trees = [build_dyadic_tree(0.0, 1.0, config.h) for _ in range(config.k)]
        self.family: CwdFamily = build_cwd_family(config.N, config.h, config.k, config.d)
        self.grid = GridIndex(points.coords)
        self._build_blocks()

    # -- construction -----------------------------------------------------

    def _build_blocks(self) -> None:
        cfg = self.config
        coords = self.points.coords
        sorted_order = [np.argsort(coords[:, j], kind="stable") for j in range(cfg.k)]
        sorted_vals = [coords[sorted_order[j], j] for j in range(cfg.k)]
        parts = []
        for orient in itertools.product((_R, _L), repeat=cfg.k):
            for index, ps in self.family.sets.items():
                part = self._build_one_block(orient, index, ps, sorted_order, sorted_vals)
                if part is not None:
                    parts.append(part)
        self.sums = _SumIndex(cfg.k, parts)
        self.blocks = {key: _Block(self.sums, start, stop) for key, start, stop in self.sums.block_ranges}
        self.num_boxes = len(self.sums.counts)

    def _build_one_block(self, orient, index, ps: WeightedPointSet, sorted_order, sorted_vals):
        if len(ps) == 0:
            return None
        cfg = self.config
        k, d = cfg.k, cfg.d
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
        m = len(pts)
        cell_lo = np.empty((m, k))
        cell_hi = np.empty((m, k))
        box_lo = np.full((m, d), NEG_INF)
        box_hi = pts.copy()
        sgn = np.ones(d)  # member sign trick: every per-row constraint is sgn*coord <= sgn*x
        for j in range(k):
            w = 1.0 / spans[j]
            if orient[j] == _R:
                box_lo[:, j] = cell_lo[:, j] = (ranks[:, j] - 1) * w  # anchor
                cell_hi[:, j] = (ranks[:, j] + 1) * w
            else:
                box_lo[:, j] = pts[:, j]
                box_hi[:, j] = cell_hi[:, j] = (ranks[:, j] + 2) * w  # anchor
                cell_lo[:, j] = ranks[:, j] * w
                sgn[j] = -1.0
        counts = np.zeros(m, dtype=np.int64)
        if self.sg.name == "max":
            values = np.full(m, np.nan)
        elif self.sg.name == "or":
            values = np.zeros(m, dtype=np.uint64)
        else:
            values = np.empty(m, dtype=object)
        coords = self.points.coords
        coords_s = coords * sgn
        w_all = self._w
        # slice candidates on the narrowest constrained dimension, mask the rest
        jstar = int(np.argmax(index))
        cell_keys = np.ravel_multi_index(tuple(ranks.T), tuple(int(s) for s in spans))
        _, first, inverse = np.unique(cell_keys, return_index=True, return_inverse=True)
        group_order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[group_order], np.arange(len(first) + 1))
        for g in range(len(first)):
            rows = group_order[bounds[g] : bounds[g + 1]]
            r0 = rows[0]
            lo = np.searchsorted(sorted_vals[jstar], cell_lo[r0, jstar], side="left")
            hi = np.searchsorted(sorted_vals[jstar], cell_hi[r0, jstar], side="right")
            cand = sorted_order[jstar][lo:hi]
            for j in range(k):
                if j == jstar or cand.size == 0:
                    continue
                cj = coords[cand, j]
                cand = cand[(cj >= cell_lo[r0, j]) & (cj <= cell_hi[r0, j])]
            if cand.size == 0:
                continue
            cand_s = coords_s[cand]
            w_cand = w_all[cand]
            row_chunk = max(1, int(4e6 // max(1, cand.size)))
            for s in range(0, rows.size, row_chunk):
                sub = rows[s : s + row_chunk]
                mask = np.ones((sub.size, cand.size), dtype=bool)
                x_s = pts[sub] * sgn
                for j in range(d):
                    mask &= cand_s[:, j][None, :] <= x_s[:, j][:, None]
                counts[sub] = mask.sum(axis=1)
                if self.sg.name == "max":
                    values[sub] = np.where(mask, w_cand[None, :], -np.inf).max(axis=1)
                elif self.sg.name == "or":
                    values[sub] = np.bitwise_or.reduce(np.where(mask, w_cand[None, :], 0), axis=1)
                else:
                    for t, r in enumerate(sub):
                        if counts[r]:
                            values[r] = np.sort(w_cand[mask[t]]).astype(np.int64)
        order = np.argsort(pts[:, 0], kind="stable")
        return orient, index, pts[order], box_lo[order], box_hi[order], counts[order], values[order]

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
    """
    _validate_query(struct, q)
    cfg = struct.config
    lo_eff = [max(l, 0.0) if i < cfg.k else l for i, l in enumerate(q.lo)]
    hi_eff = [min(h, 1.0) for h in q.hi]
    if any(lo_eff[i] > hi_eff[i] for i in range(cfg.k)) or any(h < 0.0 for h in hi_eff):
        return [], True  # empty effective range: singleton path finds nothing
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
        plo, phi, vprime, vnodes = list(lo_eff), list(hi_eff), [], []
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
                query_lo=tuple(lo_eff),
                query_hi=tuple(hi_eff),
            )
        )
    return pieces, False


def _inside_any(pts: np.ndarray, lo_arr: np.ndarray, hi_arr: np.ndarray) -> np.ndarray:
    """(boxes, points) closed-containment matrix."""
    inside = np.ones((len(lo_arr), len(pts)), dtype=bool)
    for j in range(pts.shape[1]):
        inside &= (pts[:, j] >= lo_arr[:, j, None]) & (pts[:, j] <= hi_arr[:, j, None])
    return inside


def _piece_segments(struct: IdsStructure, piece: AnchoredPiece, i: int):
    """Ascending interval tiling of the piece's i-th side.

    Returns (seg_lo, labels, pairs): cover segments labelled by their pair
    index, the leaf tail labelled -1; labels align with seg_lo bins.
    """
    tree = struct.trees[i]
    if piece.orientation[i] == _R:
        corner = piece.hi[i]
        leaf = tree.locate_leaf(corner)
        pairs = balanced_prefix_cover(tree, leaf, root=piece.vnodes[i])
        seg_lo = [tree.a(p.u) for p in pairs] + [tree.a(leaf)]
        labels = list(range(len(pairs))) + [-1]
    else:
        corner = piece.lo[i]
        leaf = tree.locate_leaf(corner)
        pairs = suffix_cover(tree, leaf, root=piece.vnodes[i])
        # ascending order: tail first, then covers from deepest up
        seg_lo = [corner] + [tree.a(p.u) for p in reversed(pairs)]
        labels = [-1] + list(range(len(pairs) - 1, -1, -1))
    return np.asarray(seg_lo), labels, pairs


def _gather_candidates(struct: IdsStructure, piece: AnchoredPiece, chosen_pairs, qlo, qhi):
    """Usable stored sums for one cover-pair tuple: (their points, row ids).

    A sum works for the tuple iff its box spans the tuple's interval in
    every two-sided dimension and sits inside the containment box (the full
    query, or just the piece when answering a piece standalone); coverage of
    a target then reduces to dominance in the remaining dimensions.  Family
    indices deeper than depth(u_i)+1 cannot span an interval of u_i's width,
    so only those levels are kept.
    """
    h = struct.config.h
    ab = np.asarray([struct.trees[i].interval(pair.u) for i, pair in enumerate(chosen_pairs)])
    depths = np.asarray([v.depth for v in piece.vnodes]), np.asarray([min(h, p.u.depth + 1) for p in chosen_pairs])
    rows = struct.sums.inside(qlo, qhi, 1, orient=piece.orientation, depths=depths, spans=(ab[:, 0], ab[:, 1]))
    return struct.sums.coords[rows], rows


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
    for key in np.unique(keys):
        rows = np.nonzero(keys == key)[0]
        chosen = [pairs[i] for pairs, i in zip(dim_pairs, np.unravel_index(key, dims))]
        cand_coords, cand_rows = _gather_candidates(struct, piece, chosen, state.qlo, state.qhi)
        tproj = struct.points.coords[grouped[rows]][:, k:]
        m_idx, covered, used = dominance_cover(cand_coords[:, k:], tproj)
        for mi in m_idx[used]:
            state.take(int(cand_rows[mi]))
        state.leftover.append(grouped[rows[~covered]])


# containment cells evaluated at once while _greedy_cover prunes its rows
_CHUNK_CELLS = 10**6


def _pack_rows(mask: np.ndarray) -> np.ndarray:
    """Boolean rows as rows of uint64 bit words, zero-padded to a word."""
    pad = -mask.shape[1] % 64
    return np.packbits(np.pad(mask, ((0, 0), (0, pad))), axis=1, bitorder="little").view(np.uint64)


def _greedy_cover(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, chunk_cells: int = _CHUNK_CELLS):
    """Greedy cover of ``pts`` by boxes: while some box holds two or more
    uncovered points, take the first box holding the most.  Returns (picked
    box rows in pick order, per-point uncovered mask).

    Exact and incremental.  Containment is computed ``chunk_cells`` cells at
    a time, and boxes holding fewer than two points are dropped: gains only
    fall, so they are never picked.  The rest stay bit-packed, and a pick
    subtracts from each gain just the popcount of the points it newly covers.
    """
    m = len(pts)
    rows, bits, gains = [], [], []
    step = max(1, chunk_cells // max(m, 1))
    for s0 in range(0, len(box_lo), step):
        inside = _inside_any(pts, box_lo[s0 : s0 + step], box_hi[s0 : s0 + step])
        cnt = inside.sum(axis=1)
        keep = np.nonzero(cnt >= 2)[0]
        rows.append(s0 + keep)
        bits.append(_pack_rows(inside[keep]))
        gains.append(cnt[keep])
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
    """Resolve leftovers: reuse any stored sum inside the query that absorbs
    two or more of them (``_greedy_cover``), then fall back to singletons.

    The pool is one flat-index lookup: sums with two or more members inside
    the query that meet the leftovers' bounding box.  Strictly reduces cost;
    exactness and containment are unaffected because absorption is a
    full-coordinate box test against sums already known to sit inside the
    query.
    """
    leftover_idx = np.concatenate([np.empty(0, dtype=np.int64), *state.leftover])
    sums = struct.sums
    if state.used:
        used = np.asarray(state.used)
        covered = _inside_any(struct.points.coords[leftover_idx], sums.box_lo[used], sums.box_hi[used]).any(axis=0)
        leftover_idx = leftover_idx[~covered]
    if leftover_idx.size < 2:
        return leftover_idx
    pts = struct.points.coords[leftover_idx]
    rows = sums.inside(state.qlo, state.qhi, 2, reach=(pts.min(axis=0), pts.max(axis=0)))
    if rows.size == 0:
        return leftover_idx
    picks, uncovered = _greedy_cover(pts, sums.box_lo[rows], sums.box_hi[rows])
    for p in picks:
        state.take(int(rows[p]))
    return leftover_idx[uncovered]


def _finish(struct: IdsStructure, state: _CoverState) -> QueryAnswer:
    leftover_idx = _compress(struct, state)
    state.parts.extend(singleton_value(struct.sg, int(i), struct._w) for i in leftover_idx)
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
    lo = [max(l, 0.0) if i < struct.config.k else l for i, l in enumerate(q.lo)]
    hi = [min(h, 1.0) for h in q.hi]
    idx = struct.grid.points_in_box(lo, hi)
    if idx.size == 0:
        return QueryAnswer(None, 0, 0)
    value = fold_values([singleton_value(struct.sg, int(i), struct._w) for i in idx], struct.sg)
    return QueryAnswer(value, sums_used=0, singletons_used=int(idx.size))


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
