"""Linear-storage structure for (d+k)-sided queries over idempotent semigroups.

Queries are two-sided in the first k dimensions and upper-bounded in the
rest.  Each point of a collectively well-distributed family, indexed by a
depth tuple in {1..h}^k, is turned into an anchored box whose j-th side
runs from the left boundary of the depth-i_j tree neighbor to the point
(mirrored per orientation); the stored sum is the input weight inside that
box.  Construction makes a fixed number of array passes, none per block
or family index: the family sets are concatenated and sorted once by
(set number, dim 0); each of the 2^k orientations then masks the points
that have their neighbor and computes all their boxes at once.  One
batched ``rangetree.box_sums`` call fills the count and value (an
id-set's on demand) of every box.  A query splits at tree midpoints
into up to 2^k anchored pieces; each piece is tiled by
balanced-prefix-cover intervals, candidate boxes are picked per cover
pair, and the last d-k dimensions reduce to a dominance cover whose
leftovers are singletons.
All pieces of a query are answered in one pass (``_cover_pieces``): one
dim-0 window of the points (``GridIndex``) tested on the query box's other
columns, one cover per (dimension, side) that labels only the points on
its side, and one sort of (point, piece) entries by (piece, label tuple).
A point on a split midpoint lies on both closed sides and so joins every
piece that holds it; the cover still lists it, and every used sum, once.

The geometry is leaf-rank arithmetic on trees of G = 2^h leaves over [0,
1].  The split is found in closed form from the clipped bounds' leaf
ranks (``decompose_query``).  A point's label is the depth of the cover
pair that holds it: with its leaf rank and the corner's clamped into the
piece root's leaves, h + 1 - bit_length(rank XOR corner), or -1 (the leaf
tail) where the two are equal (``_side_labels``).  The same formula
serves R and L sides; the pairs of ``balanced_prefix_cover`` and
``suffix_cover`` only give each depth's u-interval.

All stored sums live in one flat index, ``_SumIndex``, which also keeps
its non-empty rows sorted by their box's dim-0 high end, with their
bounds dimension-major.  Its one primitive, ``inside(qlo, qhi)``, finds
the non-empty sums inside a box: as every box has lo <= hi, a box inside
[qlo, qhi] has its dim-0 high end in [qlo0, qhi0], so one contiguous
window of that view (two ``searchsorted`` calls), tested one column at a
time, is an exact filtering search, whatever the box's orientation.  The
window's row ids are sorted back into block order, so ties break as a
per-block scan would break them.  A query makes one ``inside`` call over
its whole box, and every other lookup filters that one sorted pool.  A
piece's candidates are the pool rows of its orientation, one contiguous
slice found with two ``searchsorted`` calls; a (tuple x row) mask of the
spans then gives each of its cover tuples its candidates, still in block
order.  One grouped ``dominance_cover`` call per query then covers every
tuple at once, each tuple a group, so a target meets only its own
tuple's maxima.  The compression and the exact-cover oracle draw on the
pool rows with two or more members.

A query computes its cover first, as two arrays: the used sum rows and
the leftover point indices.  Leftovers that a used sum covers are
dropped, and a greedy reuses stored sums that absorb two or more of the
rest (``_compress``).  The greedy first drops every box that holds fewer
than two leftovers in some single dimension (``searchsorted`` calls,
dimension by dimension on the survivors); both steps then test
containment as uint64 bit rows (``_inside_bits``).  These come from rank
space: per dimension, a table whose row r holds the bits of the r
smallest points, so a box's row is ``prefix[b] & ~prefix[a]`` ANDed over
the dimensions, with a and b its faces' ranks.  Only where the points
outnumber the boxes by more than ``_DENSE_RATIO`` to one, as for the few
boxes left against a clustered query's many leftovers, is each (box,
point) cell compared instead.  ``query`` then checks, once over all rows,
that every used sum sits inside the query, and one ``_evaluate`` folds the
cover: ``sg.reduce`` of the used sums' weights (``box_sums``' value
contract), and the final leftovers as one batched ``singleton_value``
(the cost still counts each of them).  An id-set query so sorts its ids
at most three times, whatever the number of sums it uses.  A query with
no midpoint split is a cover with no rows.

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
    (orientation, index) to its row range (start, stop), and ``orient_span``
    each orientation to the row range [start, stop) of all its blocks.
    ``box_lo`` and ``box_hi`` hold each box's bounds (its family point is
    ``box_hi`` in the one-sided dimensions); ``counts`` and ``values`` hold
    the number and the semigroup sum of the input points inside each box,
    from one ``box_sums`` call: ``sg.reduce(values[rows])`` is the sum of
    the boxes ``rows``.  ``by_hi0`` is (rows, bounds): the rows that hold a
    point, in ``box_hi[:, 0]`` order, with their [lo | hi] bounds copied
    dimension-major.
    """

    def __init__(self, blocks: dict, box_lo, box_hi, orient_span: dict, point_coords, w, sg: Semigroup):
        self.blocks, self.orient_span = blocks, orient_span
        self.box_lo, self.box_hi = box_lo, box_hi
        self.counts, self.values = box_sums(point_coords, w, sg, box_lo, box_hi)
        rows = np.flatnonzero(self.counts >= 1)
        rows = rows[np.argsort(box_hi[rows, 0], kind="stable")]
        self.by_hi0 = rows, np.hstack((box_lo[rows], box_hi[rows])).T.copy()

    def inside(self, qlo, qhi) -> np.ndarray:
        """Row ids, in block order, of the sums that hold a point and whose
        box sits inside the closed box [qlo, qhi]."""
        # every box has lo <= hi, so one inside has hi0 in [qlo0, qhi0]: that
        # window of the view, tested on its other 2d - 1 bounds, is exact
        d = len(qlo)
        rows, bounds = self.by_hi0
        s = slice(bounds[d].searchsorted(qlo[0]), bounds[d].searchsorted(qhi[0], side="right"))
        ok = bounds[0, s] >= qlo[0]
        for c in range(1, d):
            ok &= bounds[c, s] >= qlo[c]
            ok &= bounds[d + c, s] <= qhi[c]
        return np.sort(rows[s][ok])


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


def _anchored_boxes(family: CwdFamily, k: int):
    """Every block's ``box_of`` boxes in a fixed number of array passes:
    (blocks, box_lo, box_hi, orient_span) as ``_SumIndex`` takes them.

    The family sets are concatenated and sorted once by (set number, dim
    0), ties in family order: that is block order within any orientation.
    Each orientation keeps, in that order, the points that have the
    neighbor their box needs and computes all their boxes at once.
    """
    keys, sets = list(family.sets), list(family.sets.values())
    set_no = np.repeat(np.arange(len(keys), dtype=np.min_scalar_type(len(keys) - 1)), [len(ps) for ps in sets])
    coords = np.concatenate([ps.coords for ps in sets])
    order = np.lexsort((coords[:, 0], set_no))  # block order
    coords, set_no = coords[order], set_no[order]
    spans = (1 << np.asarray(keys, dtype=np.int64))[set_no]
    ranks = np.minimum((coords[:, :k] * spans).astype(np.int64), spans - 1)
    blocks, orient_span, parts, start = {}, {}, [], 0
    for orient in itertools.product((_R, _L), repeat=k):
        defined = np.ones(len(coords), dtype=bool)
        for j in range(k):
            defined &= ranks[:, j] >= 1 if orient[j] == _R else ranks[:, j] <= spans[:, j] - 2
        pts, r, w = coords[defined], ranks[defined], 1.0 / spans[defined]
        box_lo = np.full(pts.shape, NEG_INF)
        box_hi = pts.copy()
        for j in range(k):
            if orient[j] == _R:
                box_lo[:, j] = (r[:, j] - 1) * w[:, j]  # anchor
            else:
                box_lo[:, j] = pts[:, j]
                box_hi[:, j] = (r[:, j] + 2) * w[:, j]  # anchor
        parts.append((box_lo, box_hi))
        sizes = np.bincount(set_no[defined], minlength=len(keys)).tolist()
        ends = (start + np.cumsum(sizes)).tolist()
        blocks.update(((orient, idx), (e - n, e)) for idx, n, e in zip(keys, sizes, ends) if n)
        orient_span[orient] = (start, start + len(pts))
        start += len(pts)
    box_lo, box_hi = (np.concatenate(c) for c in zip(*parts))
    return blocks, box_lo, box_hi, orient_span


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
        boxes = _anchored_boxes(self.family, self.config.k)  # its temporaries are gone before box_sums runs
        self.sums = _SumIndex(*boxes, self.points.coords, self._w, self.sg)
        self.blocks = self.sums.blocks
        self.num_boxes = len(self.sums.counts)

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
    vnodes: tuple[Node, ...]  # per dimension, the split node's child on the piece's side


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
    The split is found in closed form on the bounds clipped to the trees'
    [0, 1], in leaf-rank units (G = 2^h leaves): the midpoints inside are
    j/G for j0 <= j <= j1, and the highest of them is the one with the most
    trailing zero bits, where (j0 - 1) and j1 first differ.  The pieces keep
    the raw bounds, so points outside the unit cube stay in.
    """
    _validate_query(struct, q)
    cfg = struct.config
    if any(h < 0.0 for h in q.hi[cfg.k :]):
        return [], True  # no point of the trees' cube is inside: the singleton path answers
    G = 1 << cfg.h
    splits = []  # per dimension: (midpoint, its node's left child, its right child)
    for lo, hi in zip(q.lo[: cfg.k], q.hi[: cfg.k]):
        j0 = max(math.ceil(min(max(lo, 0.0), 1.0) * G), 1)
        j1 = min(math.floor(min(max(hi, 0.0), 1.0) * G), G - 1)
        if j0 > j1:
            return [], True  # no midpoint inside
        b = ((j0 - 1) ^ j1).bit_length() - 1
        r = j1 >> b
        splits.append(((r << b) / G, Node(cfg.h - b, r - 1), Node(cfg.h - b, r)))
    pieces = []
    for orient in itertools.product((_L, _R), repeat=cfg.k):
        plo, phi, vnodes = list(q.lo), list(q.hi), []
        for i, side in enumerate(orient):
            mid, left, right = splits[i]
            if side == _L:
                phi[i] = mid
                vnodes.append(left)
            else:
                plo[i] = mid
                vnodes.append(right)
        pieces.append(AnchoredPiece(orientation=orient, lo=tuple(plo), hi=tuple(phi), vnodes=tuple(vnodes)))
    return pieces, False


def _side_labels(struct: IdsStructure, piece: AnchoredPiece, i: int, x: np.ndarray):
    """Cover labels of the coordinates ``x`` on the piece's i-th side, and
    the u-interval of each label.

    Returns (labels, spans).  The label of a point is the depth of the cover
    pair whose u-interval holds it, or -1 in the leaf tail (the corner's
    leaf); row D of ``spans`` is the u-interval [a(u), b(u)] of the pair at
    depth D (NaN at a depth with no pair).  In leaf ranks, with the corner's
    and each point's clamped into the root's leaves [first, last], a point
    and the corner first part at the depth of the highest bit of their XOR,
    and the pair there holds the point: a prefix cover has a pair at each
    1 bit of the corner's rank below the root, a suffix cover at each 0 bit.
    So one formula labels both sides, and the pairs only give the spans.
    """
    h = struct.config.h
    G = 1 << h
    root = piece.vnodes[i]
    right = piece.orientation[i] == _R
    first = root.rank << (h - root.depth)
    last = first + (1 << (h - root.depth)) - 1
    corner = int(min(max((piece.hi[i] if right else piece.lo[i]) * G, first), last))
    pairs = (balanced_prefix_cover if right else suffix_cover)(struct.trees[i], Node(h, corner), root=root)
    spans = np.full((h + 1, 2), np.nan)
    for u, _ in pairs:
        spans[u.depth] = u.rank / (1 << u.depth), (u.rank + 1) / (1 << u.depth)
    xor = np.minimum(np.maximum(x * G, first), last).astype(np.int64) ^ corner
    return np.where(xor, h + 1 - np.frexp(xor)[1], -1), spans


def _tuple_candidates(sums: _SumIndex, pool: np.ndarray, orient, a: np.ndarray, b: np.ndarray):
    """Usable stored sums of every cover-pair tuple of one piece orientation.

    ``pool`` holds the rows, in block order, of the non-empty sums inside
    the containment box.  Row t of ``a`` and ``b`` holds tuple t's
    u-interval ends, one column per two-sided dimension.  A pool sum works
    for a tuple iff it has the piece's orientation and its box spans the
    tuple's interval in every two-sided dimension; coverage of a target
    then reduces to dominance in the remaining dimensions.

    The orientation's pool rows are one contiguous slice of the pool (two
    ``searchsorted`` calls), which every tuple's own spans narrow; returns
    (slice rows in block order, tuple x slice mask), so tuple t's
    candidates are ``rows[mask[t]]``.
    """
    rows = pool[slice(*pool.searchsorted(sums.orient_span[orient]))]
    mask = np.ones((len(a), rows.size), dtype=bool)
    for j in range(a.shape[1]):
        mask &= sums.box_lo[rows, j] <= a[:, j, None]
        mask &= sums.box_hi[rows, j] >= b[:, j, None]
    return rows, mask


_NONE = np.empty(0, dtype=np.int64)

# sums of fewer members never beat singletons
_MIN_MEMBERS = 2


def _first_uses(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, each at its first position."""
    return a[np.sort(np.unique(a, return_index=True)[1])]


def _cover_pieces(struct: IdsStructure, pieces: list[AnchoredPiece], pool, qlo: np.ndarray, qhi: np.ndarray):
    """Dominance covers of every cover-pair tuple of all anchored pieces in
    one pass (no compression yet).  The pieces tile the containment box
    [qlo, qhi], and ``pool`` holds the non-empty sums inside it
    (``_SumIndex.inside``).  Returns (rows, leftover): the used sum rows, in
    (piece, tuple) order, and the indices of the points no used sum covers.
    Each is listed once, at its first use, so paid once, though a sum may
    serve several tuples and a midpoint point several pieces.

    One dim-0 window takes the box's points.  Each (dimension, side) cover is
    built once, if some point lies on that side, and labels only the points
    on its side (``_side_labels``); a point on a split midpoint lies on both
    sides, so it joins every piece whose closed side holds it.  Each (point,
    piece) entry is keyed by (piece, depth label tuple), raveled so that
    tuples, and with them used sums, run in piece order (that of
    ``decompose_query``), then tuple order: depth order is the covers' pair
    order.  Each piece's slice of the pool gives every tuple's candidates
    (``_tuple_candidates``), listed in (tuple, block) order, and one
    ``dominance_cover`` call takes every tuple as a group: a target meets
    only its own tuple's maxima, and a tuple with no candidates covers none
    of its targets.  The maxima come back in candidate order, so the used
    sums keep their (piece, tuple) order.
    """
    k = struct.config.k
    target_idx = struct.grid.points_in_box(qlo, qhi)
    if target_idx.size == 0:
        return _NONE, _NONE
    side_piece = {}  # (dim, side) -> a piece on that side
    for piece in pieces:
        for i, side in enumerate(piece.orientation):
            side_piece.setdefault((i, side), piece)
    spans = {}  # (dim, side) -> u-intervals by depth of the side's cover pairs, for the sides holding points
    tcoords = struct.points.coords[target_idx]
    ent = np.arange(target_idx.size)  # entry -> target position
    piece_code = np.zeros(target_idx.size, dtype=np.int64)  # bit i: the entry's side in dim i
    labels: list = []  # per dimension, the entries' depth labels
    for i in range(k):
        x = tcoords[ent, i]
        parts = []
        for s, side in enumerate((_L, _R)):
            piece = side_piece.get((i, side))
            if piece is None:
                continue
            on = (x <= piece.hi[i] if side == _L else x >= piece.lo[i]).nonzero()[0]  # closed at the split
            if on.size:
                lab, spans[i, side] = _side_labels(struct, piece, i, x[on])
                parts.append((on, 2 * piece_code[on] + s, lab))
        on, piece_code, lab = (np.concatenate(c) for c in zip(*parts))  # each side keeps its entries' order
        ent = ent[on]
        labels = [c[on] for c in labels] + [lab]
    singles = np.any(np.stack(labels) == -1, axis=0)
    leftover = [ent[singles]]  # leaf-tail points, as target positions
    if singles.all():
        return _NONE, target_idx[_first_uses(leftover[0])]
    ent = ent[~singles]
    dims = (1 << k, *[struct.config.h + 1] * k)
    keys = np.ravel_multi_index((piece_code[~singles], *(c[~singles] for c in labels)), dims)
    order = keys.argsort(kind="stable")  # by tuple, each tuple's entries in index order
    ent, keys = ent[order], keys[order]
    first = np.diff(keys, prepend=-1) != 0
    tuples = np.stack(np.unravel_index(keys[first], dims), axis=1)  # piece code, then labels
    orients = list(itertools.product((_L, _R), repeat=k))  # by piece code
    piece_starts = np.diff(tuples[:, 0], prepend=-1).nonzero()[0]
    cand, cand_groups = [_NONE], [_NONE]
    for t0, t1 in zip(piece_starts.tolist(), [*piece_starts[1:].tolist(), len(tuples)]):
        orient = orients[tuples[t0, 0]]
        ab = np.stack([spans[i, side][tuples[t0:t1, 1 + i]] for i, side in enumerate(orient)], axis=1)
        rows, mask = _tuple_candidates(struct.sums, pool, orient, ab[..., 0], ab[..., 1])
        t, c = mask.nonzero()  # in (tuple, block) order
        cand.append(rows[c])
        cand_groups.append(t0 + t)
    cand = np.concatenate(cand)
    m_idx, covered, took = dominance_cover(
        struct.sums.box_hi[cand, k:], tcoords[ent, k:], np.concatenate(cand_groups), np.cumsum(first) - 1
    )
    leftover.append(ent[~covered])
    return _first_uses(cand[m_idx[took]]), target_idx[_first_uses(np.concatenate(leftover))]


# (box, point) cells tested at once by the dense containment compare
_CHUNK_CELLS = 1 << 16

# above this many points per box, containment bit rows come from a dense
# compare; at or below it, from per-dimension rank-prefix tables, whose
# O(points^2 / 64) words per dimension a few boxes do not repay
_DENSE_RATIO = 8


def _inside_bits(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray):
    """Closed containment of ``pts`` in each box as a row of uint64 bit words:
    bit i of a row is set iff point i lies in that box, padding bits never.

    Rank space, unless the points outnumber the boxes by more than
    ``_DENSE_RATIO`` to one: per dimension the points are sorted once, and
    row r of a prefix table holds the bits of the r smallest (one bit set
    per row, then a running sum, which is the OR as the bits are distinct).
    A box's points in that dimension are ``prefix[b] & ~prefix[a]``, with a
    and b its faces' ranks from two ``searchsorted`` calls (one when every
    low face is -inf), and its row is their AND over the dimensions: work
    O((points + boxes) * points / 64) per dimension.  Otherwise one dense
    compare per dimension on the points' contiguous columns, about
    ``_CHUNK_CELLS`` (box, point) cells and at least one box at a time.
    """
    m, nb = pts.shape[0], len(box_lo)
    words = -(-m // 64)
    if m > _DENSE_RATIO * nb:
        return _dense_bits(pts, box_lo, box_hi, words)
    order = pts.argsort(axis=0, kind="stable")
    table = np.empty((m + 1, words), dtype=np.uint64)
    bits = np.full((nb, words), np.iinfo(np.uint64).max, dtype=np.uint64)
    buf = np.empty_like(bits)  # the one other (box x word) temporary
    for j in range(pts.shape[1]):
        o = order[:, j]
        col = pts[o, j]
        table.fill(0)
        table[np.arange(1, m + 1), o >> 6] = np.left_shift(np.uint64(1), (o & 63).astype(np.uint64))
        np.cumsum(table, axis=0, out=table)
        # ranks lie in [0, m]; "clip" only spares take's buffered bounds check
        bits &= table.take(col.searchsorted(box_hi[:, j], side="right"), axis=0, out=buf, mode="clip")
        if box_lo[:, j].max(initial=NEG_INF) > NEG_INF:
            bits &= np.invert(table.take(col.searchsorted(box_lo[:, j]), axis=0, out=buf, mode="clip"), out=buf)
    return bits


def _dense_bits(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray, words: int):
    """``_inside_bits`` by one compare per (box, point) cell."""
    m = len(pts)
    cols = np.ascontiguousarray(pts.T)
    bits = np.empty((len(box_lo), words), dtype=np.uint64)
    step = max(1, _CHUNK_CELLS // max(m, 1))
    cells = np.zeros((min(step, len(box_lo)), words * 64), dtype=bool)  # padding columns stay False
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


def _greedy_cover(pts: np.ndarray, box_lo: np.ndarray, box_hi: np.ndarray):
    """Greedy cover of ``pts`` by boxes: while some box holds two or more
    uncovered points, take the first box holding the most.  Returns (picked
    box rows in pick order, per-point uncovered mask).

    Exact and incremental.  Only boxes holding two or more points can be
    picked, as gains only fall.  Such a box holds two or more in every
    single dimension, which ``searchsorted`` calls on the sorted point
    columns count dimension by dimension, each on the boxes the ones before
    kept (one call where every low face is -inf, as in a stored box's
    one-sided dimensions); the rest of the boxes are dropped unseen.
    The survivors, still in box order, get their containment as bit rows
    (``_inside_bits``), and a pick subtracts from each gain just the
    popcount of the points it newly covers.
    """
    m = len(pts)
    srt = np.sort(pts, axis=0)
    rows = np.arange(len(box_lo))
    for j in range(pts.shape[1]):  # each dimension sees only the survivors of the ones before
        held = srt[:, j].searchsorted(box_hi[rows, j], side="right")
        lo = box_lo[rows, j]
        if lo.max(initial=NEG_INF) > NEG_INF:  # a -inf face holds every point below the high one
            held -= srt[:, j].searchsorted(lo)
        rows = rows[held >= 2]
    bits = _inside_bits(pts, box_lo[rows], box_hi[rows])
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


def _compress(struct: IdsStructure, pool: np.ndarray, rows: np.ndarray, leftover: np.ndarray):
    """Resolve leftovers: drop those a used sum ``rows`` already covers,
    reuse any sum of ``pool`` (the non-empty sums inside the query) that
    absorbs two or more of the rest (``_greedy_cover``), then fall back to
    singletons.  Returns the cover (rows, leftover): ``rows`` followed by
    the greedy's picks, and the points left as singletons.

    Both steps test containment as bit rows (``_inside_bits``), built in
    rank space unless the leftovers far outnumber the boxes.  The greedy
    sees the pool's sums with two or more members, and narrows them to
    boxes holding two or more leftovers in every single dimension (so
    meeting the leftovers' bounding box) before any containment test.
    Strictly reduces cost; exactness and containment are unaffected because
    absorption is a full-coordinate box test against sums already known to
    sit inside the query.
    """
    pts = struct.points.coords[leftover]
    sums = struct.sums
    if rows.size and leftover.size:
        covered = _unpack(np.bitwise_or.reduce(_inside_bits(pts, sums.box_lo[rows], sums.box_hi[rows])), len(pts))
        leftover, pts = leftover[~covered], pts[~covered]
    if leftover.size < 2:
        return rows, leftover
    pool = pool[sums.counts[pool] >= _MIN_MEMBERS]
    picks, uncovered = _greedy_cover(pts, sums.box_lo[pool], sums.box_hi[pool])
    return np.concatenate((rows, pool[picks])), leftover[uncovered]


def _evaluate(struct: IdsStructure, rows: np.ndarray, leftover: np.ndarray) -> QueryAnswer:
    """Fold a cover: one ``reduce`` of the stored sums ``rows`` (one gather
    of their weights), one of the singletons ``leftover``, then the two."""
    parts = [struct.sg.reduce(struct.sums.values[rows])] if rows.size else []
    if leftover.size:
        parts.append(singleton_value(struct.sg, leftover, struct._w))
    value = fold_values(parts, struct.sg) if parts else None
    return QueryAnswer(value, sums_used=int(rows.size), singletons_used=int(leftover.size))


def usable_sums(struct: IdsStructure, q: Box):
    """Stored sums of two or more members whose box sits inside q, as
    (value, box, count) triples: the exact-cover oracle's available sums."""
    sums = struct.sums
    rows = sums.inside(np.asarray(q.lo), np.asarray(q.hi))
    rows = rows[sums.counts[rows] >= _MIN_MEMBERS]
    reduce, lo, hi = struct.sg.reduce, sums.box_lo, sums.box_hi
    return [(reduce(sums.values[[r]]), Box(tuple(lo[r]), tuple(hi[r])), int(sums.counts[r])) for r in rows.tolist()]


def query(struct: IdsStructure, q: Box, return_audit: bool = False):
    """Compute the query's cover, then fold it (``_evaluate``).

    The cover is the anchored-piece covers plus one shared compression
    pass, both drawing on one ``inside`` lookup of the sums inside q, or
    every point inside q as a singleton when no midpoint splits the query.
    Every used sum must sit inside q; the audit lists their boxes in use
    order.
    """
    pieces, singleton_only = decompose_query(struct, q)
    qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
    if singleton_only:
        rows, leftover = _NONE, struct.grid.points_in_box(qlo, qhi)
    else:
        pool = struct.sums.inside(qlo, qhi)
        rows, leftover = _compress(struct, pool, *_cover_pieces(struct, pieces, pool, qlo, qhi))
    lo, hi = struct.sums.box_lo[rows], struct.sums.box_hi[rows]
    if np.any(lo < qlo) or np.any(hi > qhi):
        raise AssertionError("used sum escapes the query box")
    ans = _evaluate(struct, rows, leftover)
    if not return_audit:
        return ans
    return ans, [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]
