"""Linear-storage structure for (d+k)-sided queries over idempotent semigroups.

Queries are two-sided in the first k dimensions and upper-bounded in the
rest.  Each point of a collectively well-distributed family, indexed by a
depth tuple in {1..h}^k, is turned into an anchored box whose j-th side
runs from the left boundary of the depth-i_j tree neighbor to the point
(mirrored per orientation); the stored sum is the input weight inside that
box.  Construction computes each block's boxes with array arithmetic, then
fills the count and value (an id-set's on demand) of every box of every
block in one batched ``rangetree.box_sums`` call.  A query splits at tree
midpoints into up to 2^k anchored pieces; each piece is tiled by
balanced-prefix-cover intervals, candidate boxes are picked per cover
pair, and the last d-k dimensions reduce to a dominance cover whose
leftovers are singletons.
All pieces of a query are answered in one pass (``_cover_pieces``): one
grid gather over the query box, one cover per (dimension, side) that
labels only the points on its side, and one sort of (point, piece)
entries by (piece, label tuple).  A point on a split midpoint lies on both
closed sides and so joins every piece that holds it.

All stored sums live in one flat index, ``_SumIndex``, which also keeps
each orientation's rows sorted by dim 0 with their bounds dimension-major.
Its one primitive, ``inside``, finds the sums inside a box: one contiguous
dim-0 slice per orientation, tested one column at a time, and row ids
merged into block order, so ties break as a per-block scan would break
them.  Each piece makes one ``inside`` call with the loosest spans of all
its cover tuples; a (tuple x row) mask of the spans then gives each tuple
its candidates, still in block order.  The targets of every tuple with none
go to the leftovers under one mask, and only the other tuples meet the
dominance cover.  ``inside`` also finds the sums that absorb leftovers and
the exact-cover oracle's sums.

The query tail works on arrays.  Leftovers that a used sum covers are
dropped, and a greedy reuses stored sums that absorb two or more of the
rest.  The greedy first drops every box that holds fewer than two
leftovers in some single dimension (two ``searchsorted`` calls per
dimension); both steps then test containment as uint64 bit rows
(``_inside_bits``).  The final leftovers enter the fold as one batched
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

    Rows are in block order: (orientation, then family index), then the
    dim-0 point coordinate; ``blocks`` maps each non-empty block's
    (orientation, index) to its row range (start, stop).  ``box_lo`` and
    ``box_hi`` hold each box's bounds; ``counts`` and ``values`` hold the
    number and the semigroup sum of the input points inside each box, from
    one ``box_sums`` call (``values[rows]`` gives several at once).
    ``by_orient[o]`` is (rows, bounds, counts): the rows of orientation o
    sorted by their dim-0 point coordinate, with their [lo | hi] bounds
    copied dimension-major and their counts in that order.
    """

    def __init__(self, k: int, parts: list, point_coords: np.ndarray, w: np.ndarray, sg: Semigroup):
        # parts: (orientation, index, coords, box_lo, box_hi) per non-empty block
        ends = np.cumsum([0] + [len(p[2]) for p in parts]).tolist()
        self.blocks = {(p[0], p[1]): (a, b) for p, a, b in zip(parts, ends, ends[1:])}
        self.coords, self.box_lo, self.box_hi = (np.concatenate(c) for c in list(zip(*parts))[2:])
        self.counts, self.values = box_sums(point_coords, w, sg, self.box_lo, self.box_hi)
        self.by_orient = {}
        for o in itertools.product((_R, _L), repeat=k):
            blocks = [np.arange(a, b) for (orient, _), (a, b) in self.blocks.items() if orient == o]
            rows = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
            rows = rows[np.argsort(self.coords[rows, 0], kind="stable")]
            bounds = np.hstack((self.box_lo[rows], self.box_hi[rows])).T.copy()
            self.by_orient[o] = rows, bounds, self.counts[rows]

    def inside(self, qlo, qhi, min_count: int, *, orient=None, spans=None, reach=None) -> np.ndarray:
        """Row ids, in block order, of the sums with at least ``min_count``
        members whose box sits inside the closed box [qlo, qhi].

        Optional filters: ``orient`` keeps one orientation; ``spans`` =
        (a, b) keeps boxes with lo <= a and hi >= b in the first len(a)
        dims; ``reach`` = (lmin, lmax) keeps boxes meeting it.
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
        found = []
        for o in self.by_orient if orient is None else [orient]:
            rows, bounds, counts = self.by_orient[o]
            # the sort key, a row's dim-0 point coordinate, is its box's hi end (R) or lo end (L)
            key = d if o[0] == _R else 0
            s = slice(np.searchsorted(bounds[key], floor[key]), np.searchsorted(bounds[key], ceil[key], side="right"))
            ok = counts[s] >= min_count
            for c in range(2 * d):
                if c != key:  # the slice already bounds the key column
                    ok &= (bounds[c, s] >= floor[c]) & (bounds[c, s] <= ceil[c])
            found.append(rows[s][ok])
        return np.sort(np.concatenate(found))


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
        self.blocks = self.sums.blocks
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

    Returns (seg_lo, labels, spans): cover segments labelled by their pair
    index, the leaf tail labelled -1, labels aligned with seg_lo bins; and
    each pair's u-interval as a row [a(u), b(u)].
    """
    tree = struct.trees[i]
    root = piece.vnodes[i]
    right = piece.orientation[i] == _R
    corner = piece.hi[i] if right else piece.lo[i]
    leaf = _leaf_under(tree, corner, root)
    pairs = (balanced_prefix_cover if right else suffix_cover)(tree, leaf, root=root)
    spans = [tree.interval(p.u) for p in pairs]
    if right:
        seg_lo = [a for a, _ in spans] + [tree.a(leaf)]
        labels = [*range(len(pairs)), -1]
    else:
        # ascending order: tail first, then covers from deepest up
        seg_lo = [corner] + [a for a, _ in reversed(spans)]
        labels = [-1, *range(len(pairs) - 1, -1, -1)]
    return np.asarray(seg_lo), np.asarray(labels), np.asarray(spans).reshape(-1, 2)


def _tuple_candidates(sums: _SumIndex, orient, a: np.ndarray, b: np.ndarray, qlo, qhi):
    """Usable stored sums of every cover-pair tuple of one piece orientation.

    Row t of ``a`` and ``b`` holds tuple t's u-interval ends, one column per
    two-sided dimension.  A sum works for a tuple iff its box spans the
    tuple's interval in every two-sided dimension and sits inside the
    containment box [qlo, qhi]; coverage of a target then reduces to
    dominance in the remaining dimensions.

    One flat-index lookup with the loosest spans over the tuples gives a
    pool that every tuple's own spans narrow; returns (pool rows in block
    order, tuple x pool mask), so tuple t's candidates are ``pool[mask[t]]``.
    """
    pool = sums.inside(qlo, qhi, 1, orient=orient, spans=(a.max(axis=0), b.min(axis=0)))
    mask = np.ones((len(a), pool.size), dtype=bool)
    for j in range(a.shape[1]):
        mask &= sums.box_lo[pool, j] <= a[:, j, None]
        mask &= sums.box_hi[pool, j] >= b[:, j, None]
    return pool, mask


class _CoverState:
    """Accumulates one query's cover: used sum rows and leftovers."""

    def __init__(self, sums: _SumIndex, qlo, qhi, audit):
        self.sums = sums
        self.qlo = np.asarray(qlo)
        self.qhi = np.asarray(qhi)
        self.audit = audit
        self.used: list[int] = []
        self.leftover: list = []

    def take(self, rows: np.ndarray) -> None:
        """Use the stored sums ``rows``, in order; each must sit inside the query."""
        lo, hi = self.sums.box_lo[rows], self.sums.box_hi[rows]
        if self.audit is not None:
            self.audit.extend(Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist()))
        if np.any(lo < self.qlo) or np.any(hi > self.qhi):
            raise AssertionError("used sum escapes the query box")
        self.used.extend(rows.tolist())


def _cover_pieces(struct: IdsStructure, pieces: list[AnchoredPiece], state: _CoverState) -> None:
    """Per-tuple dominance covers of all anchored pieces in one pass (no
    singletons yet).  The pieces tile the state's containment box.

    One grid gather takes the box's points.  Each (dimension, side) cover is
    built once, if some point lies on that side, and labels only the points
    on its side; a point on a split midpoint lies on both sides, so it joins
    every piece whose closed side holds it.  Each (point, piece) entry is
    keyed by (piece, label tuple), raveled so that tuples, and with them
    used sums, run in piece order (that of ``decompose_query``), then tuple
    order.  One ``inside`` lookup per piece finds every tuple's candidates;
    the targets of tuples with none go to the leftovers at once, and only
    the rest meet ``dominance_cover``.
    """
    k = struct.config.k
    target_idx = struct.grid.points_in_box(state.qlo, state.qhi)
    if target_idx.size == 0:
        return
    side_piece = {}  # (dim, side) -> a piece on that side
    for piece in pieces:
        for i, side in enumerate(piece.orientation):
            side_piece.setdefault((i, side), piece)
    spans = {}  # (dim, side) -> u-intervals of the side's cover pairs, for the sides holding points
    tcoords = struct.points.coords[target_idx]
    ent = np.arange(target_idx.size)  # entry -> target position
    piece_code = np.zeros(target_idx.size, dtype=np.int64)  # bit i: the entry's side in dim i
    labels: list = []  # per dimension, the entries' pair labels
    for i in range(k):
        x = tcoords[ent, i]
        parts = []
        for s, side in enumerate((_L, _R)):
            piece = side_piece.get((i, side))
            if piece is None:
                continue
            on = np.flatnonzero(x <= piece.hi[i] if side == _L else x >= piece.lo[i])  # closed at the split
            if on.size:
                seg_lo, labs, spans[i, side] = _piece_segments(struct, piece, i)
                pos = np.clip(np.searchsorted(seg_lo, x[on], side="right") - 1, 0, len(labs) - 1)
                parts.append((on, 2 * piece_code[on] + s, labs[pos]))
        on, piece_code, lab = (np.concatenate(c) for c in zip(*parts))  # each side keeps its entries' order
        ent = ent[on]
        labels = [c[on] for c in labels] + [lab]
    singles = np.any(np.stack(labels) == -1, axis=0)
    state.leftover.append(target_idx[ent[singles]])  # leaf-tail points
    if singles.all():
        return
    ent = ent[~singles]
    grouped = target_idx[ent]
    width = [1] * k
    for (i, _), sp in spans.items():
        width[i] = max(width[i], len(sp))
    dims = (1 << k, *width)
    keys = np.ravel_multi_index((piece_code[~singles], *(c[~singles] for c in labels)), dims)
    order = np.argsort(keys, kind="stable")  # by tuple, each tuple's rows in index order
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys[order])) + 1))
    sizes = np.diff(np.append(starts, order.size))
    tuples = np.stack(np.unravel_index(keys[order[starts]], dims), axis=1)  # piece code, then labels
    orients = list(itertools.product((_L, _R), repeat=k))  # by piece code
    piece_starts = np.flatnonzero(np.diff(tuples[:, 0], prepend=-1))
    lookups = []
    for t0, t1 in zip(piece_starts.tolist(), [*piece_starts[1:].tolist(), len(tuples)]):
        orient = orients[tuples[t0, 0]]
        ab = np.stack([spans[i, side][tuples[t0:t1, 1 + i]] for i, side in enumerate(orient)], axis=1)
        lookups.append((t0, *_tuple_candidates(struct.sums, orient, ab[..., 0], ab[..., 1], state.qlo, state.qhi)))
    has_candidates = np.concatenate([mask.any(axis=1) for _, _, mask in lookups])
    state.leftover.append(grouped[order[~np.repeat(has_candidates, sizes)]])  # nothing to dominate with
    gproj = tcoords[ent][:, k:]
    for t0, pool, mask in lookups:
        for t in np.flatnonzero(has_candidates[t0 : t0 + len(mask)]).tolist():
            rows = order[starts[t0 + t] : starts[t0 + t] + sizes[t0 + t]]
            cand_rows = pool[mask[t]]
            m_idx, covered, used = dominance_cover(struct.sums.coords[cand_rows, k:], gproj[rows])
            state.take(cand_rows[m_idx[used]])
            state.leftover.append(grouped[rows[~covered]])


# (box, point) cells tested at once while building containment bit rows
_CHUNK_CELLS = 1 << 16


def _inside_bits(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, chunk_cells: int = _CHUNK_CELLS):
    """Closed containment of ``pts`` in each box as a row of uint64 bit words:
    bit i of a row is set iff point i lies in that box, padding bits never.

    One dense compare per dimension on the points' contiguous columns,
    about ``chunk_cells`` (box, point) cells and at least one box at a time.
    """
    m = len(pts)
    cols = np.ascontiguousarray(pts.T)
    bits = np.empty((len(box_lo), -(-m // 64)), dtype=np.uint64)
    step = max(1, chunk_cells // max(m, 1))
    cells = np.zeros((min(step, len(box_lo)), bits.shape[1] * 64), dtype=bool)  # padding columns stay False
    for s0 in range(0, len(box_lo), step):
        lo, hi = box_lo[s0 : s0 + step], box_hi[s0 : s0 + step]
        inside = cells[: len(lo), :m]
        np.greater_equal(cols[0], lo[:, :1], out=inside)
        inside &= cols[0] <= hi[:, :1]
        for j in range(1, len(cols)):
            inside &= (cols[j] >= lo[:, j, None]) & (cols[j] <= hi[:, j, None])
        bits[s0 : s0 + len(lo)] = np.packbits(cells[: len(lo)], axis=1, bitorder="little").view(np.uint64)
    return bits


def _unpack(word_row: np.ndarray, m: int) -> np.ndarray:
    """The first ``m`` bits of a row of uint64 words, as booleans."""
    return np.unpackbits(word_row.view(np.uint8), count=m, bitorder="little").astype(bool)


def _greedy_cover(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, chunk_cells: int = _CHUNK_CELLS):
    """Greedy cover of ``pts`` by boxes: while some box holds two or more
    uncovered points, take the first box holding the most.  Returns (picked
    box rows in pick order, per-point uncovered mask).

    Exact and incremental.  Only boxes holding two or more points can be
    picked, as gains only fall.  Such a box holds two or more in every
    single dimension, which two ``searchsorted`` calls per dimension on the
    sorted point columns count; the rest of the boxes are dropped unseen.
    The survivors, still in box order, get their containment as bit rows
    (``_inside_bits``), and a pick subtracts from each gain just the
    popcount of the points it newly covers.
    """
    m = len(pts)
    srt = np.sort(pts, axis=0)
    keep = np.ones(len(box_lo), dtype=bool)
    for j in range(pts.shape[1]):
        keep &= np.searchsorted(srt[:, j], box_hi[:, j], side="right") - np.searchsorted(srt[:, j], box_lo[:, j]) >= 2
    rows = np.flatnonzero(keep)
    bits = _inside_bits(pts, box_lo[rows], box_hi[rows], chunk_cells)
    gains = np.bitwise_count(bits).sum(axis=1, dtype=np.int64)
    keep = gains >= 2
    rows, bits, gains = rows[keep], bits[keep], gains[keep]
    alive = np.full(bits.shape[1], np.iinfo(np.uint64).max, dtype=np.uint64)
    alive[-1] >>= np.uint64(-m % 64)  # no padding bits
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
    return picks, _unpack(alive, m)


def _compress(struct: IdsStructure, state: _CoverState) -> np.ndarray:
    """Resolve leftovers: drop those a used sum already covers, reuse any
    stored sum inside the query that absorbs two or more of the rest
    (``_greedy_cover``), then fall back to singletons.

    Both steps test containment as bit rows (``_inside_bits``).  The pool
    is one flat-index lookup: sums with two or more members inside the
    query that meet the leftovers' bounding box, which the greedy narrows
    to boxes holding two or more leftovers per dimension before any
    containment test.  Strictly reduces cost; exactness and containment are
    unaffected because absorption is a full-coordinate box test against
    sums already known to sit inside the query.
    """
    leftover_idx = np.concatenate([np.empty(0, dtype=np.int64), *state.leftover])
    pts = struct.points.coords[leftover_idx]
    sums = struct.sums
    if state.used and leftover_idx.size:
        used = np.asarray(state.used)
        covered = _unpack(np.bitwise_or.reduce(_inside_bits(pts, sums.box_lo[used], sums.box_hi[used])), len(pts))
        leftover_idx, pts = leftover_idx[~covered], pts[~covered]
    if leftover_idx.size < 2:
        return leftover_idx
    rows = sums.inside(state.qlo, state.qhi, 2, reach=(pts.min(axis=0), pts.max(axis=0)))
    picks, uncovered = _greedy_cover(pts, sums.box_lo[rows], sums.box_hi[rows])
    state.take(rows[picks])
    return leftover_idx[uncovered]


def _finish(struct: IdsStructure, state: _CoverState) -> QueryAnswer:
    leftover_idx = _compress(struct, state)
    parts = list(struct.sums.values[np.asarray(state.used, dtype=np.int64)])  # one gather for every used sum
    if leftover_idx.size:
        parts.append(singleton_value(struct.sg, leftover_idx, struct._w))
    value = fold_values(parts, struct.sg) if parts else None
    return QueryAnswer(value, sums_used=len(state.used), singletons_used=int(leftover_idx.size))


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
    _cover_pieces(struct, pieces, state)
    ans = _finish(struct, state)
    return (ans, audit) if return_audit else ans
