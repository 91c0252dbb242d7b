"""Stored-sum structures over idempotent semigroups: the linear-storage
structure for (d+k)-sided queries (``IdsStructure``) and the sampled
dominance structure (``DominanceStructure``).  Both keep their stored sums
in one ``_SumIndex``, find the sums inside a box with its ``inside``, and
fold a cover with ``_evaluate``; both reduce the last dimensions to the
cover step of ``dominance.dominance_cover``.

Queries of the (d+k)-sided structure are two-sided in the first k
dimensions and upper-bounded in the rest.  Each point of a collectively
well-distributed family, indexed by a depth tuple in {1..h}^k, is turned
into an anchored box whose j-th side runs from the left boundary of the
depth-i_j tree neighbor to the point (mirrored per orientation); the
stored sum is the input weight inside that box.  Construction makes a
fixed number of array passes, none per block or family index: the family
sets are concatenated and sorted once by (set number, dim 0); each of the
2^k orientations then masks the points that have their neighbor and
computes all their boxes at once.  One
batched ``rangetree.box_sums`` call fills the count and value (an
id-set's on demand) of every box.  A query splits at tree midpoints
into up to 2^k anchored pieces; each piece is tiled by
balanced-prefix-cover intervals, candidate boxes are picked per cover
pair, and the last d-k dimensions reduce to a dominance cover whose
leftovers are singletons.
All pieces of a query are answered in one pass (``_cover_pieces``): one
dim-0 window of the points (``GridIndex``) tested on the query box's other
columns, and one cover per (dimension, side), built before any point is
labelled and used twice.  Its u-intervals first filter the stored sums
(``_spanning``): a sum can serve a cover tuple only if it spans one
u-interval of its own side's cover in every two-sided dimension.  If none
does, every point of the box is a leftover and the query labels none.
Otherwise each cover labels only the points on its side, and one sort of
(point, piece) entries by (piece, label tuple) groups them.  A point on a
split midpoint lies on both closed sides and so joins every piece that
holds it; the cover still lists it, and every used sum, once.

The geometry is leaf-rank arithmetic on trees of G = 2^h leaves over [0,
1].  The split is found in closed form from the clipped bounds' leaf
ranks (``decompose_query``).  A point's label is the depth of the cover
pair that holds it: with its leaf rank and the corner's clamped into the
piece root's leaves, h + 1 - bit_length(rank XOR corner), or -1 (the leaf
tail) where the two are equal (``_point_labels``).  The same formula
serves R and L sides; the pairs of ``balanced_prefix_cover`` and
``suffix_cover`` only give each depth's u-interval (``_side_cover``).

All stored sums live in one flat index, ``_SumIndex``, which also keeps
its non-empty rows sorted by their box's dim-0 high end, with their
bounds dimension-major and a flag for the rows of two or more members;
the structure keeps each such row's orientation number beside it
(``codes``).  Its one primitive, ``inside(qlo, qhi)``,
finds the non-empty sums inside a box: as every box has lo <= hi, a box
inside [qlo, qhi] has its dim-0 high end in [qlo0, qhi0], so one
contiguous window of that view (two ``searchsorted`` calls), tested one
column at a time, is an exact filtering search, whatever the box's
orientation.  It returns the ascending positions in the view of the rows
that pass.  A query makes one ``inside`` call over its whole box, and
every later step takes that position array and narrows it; only what
survives is gathered and sorted back into block order, so ties break as a
per-block scan would break them.  When the query holds fewer such rows
than points, the covers' u-intervals narrow the positions first (one
``searchsorted`` over all covers), and an empty result ends the cover
step early; the filter is exact and drops no candidate, so costs do not
change.  The candidates of every cover tuple of every piece come from one
(tuple x row) mask over those positions, testing each row's orientation
number and its bounds in the two-sided dimensions against the tuple's
spans (``_tuple_candidates``).  One grouped ``dominance_cover`` call per
query then covers every tuple at once, each tuple a group, so a target
meets only its own tuple's maxima.  The compression and the exact-cover
oracle draw on the positions' rows with two or more members.

A query computes its cover first, as two arrays: the used sum rows and
the leftover point indices.  Leftovers that a used sum covers are
dropped, and a greedy reuses stored sums that absorb two or more of the
rest (``_compress``), its pool the query's sums that hold two or more
leftovers in every single dimension.  Both steps test containment as
uint64 bit rows (``_inside_bits``).  These come from rank space: per
dimension, a table whose row r holds the bits of the r smallest points,
so a box's row is ``prefix[b] & ~prefix[a]`` ANDed over the dimensions,
with a and b its faces' ranks.  Only where the points
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

The dominance structure stores, for each sample point s, the sum of the
input points it dominates, as the box (-inf, s].  A dominance query
(-inf, q] takes its live samples from one ``inside`` call, sorted back to
sample order, covers the points of the query with their maxima
(``dominance_cover``) and folds the maxima's sums and the uncovered points
with ``_evaluate``.
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
from .points import WeightedPointSet, hammersley_wd
from .rangetree import box_sums
from .semigroup import Semigroup, fold_values, singleton_value

__all__ = [
    "IdsConfig",
    "IdsStructure",
    "AnchoredPiece",
    "DominanceStructure",
    "box_of",
    "build_dominance",
    "build_ids",
    "decompose_query",
    "dominance_query",
    "query",
]

_R, _L = "R", "L"


def _check_k(k: int, d: int) -> None:
    if not 1 <= k <= d - 1:
        raise ValueError(f"need 1 <= k <= d-1, got k={k}, d={d}")


@dataclass(frozen=True)
class IdsConfig:
    """The structure's parameters; the points it is built on give d."""

    k: int
    h: int  # ceil(log2 n)
    N: int  # max(1, n // h**k)

    @staticmethod
    def for_input(n: int, d: int, k: int) -> "IdsConfig":
        _check_k(k, d)
        h = max(1, math.ceil(math.log2(n)))
        return IdsConfig(k=k, h=h, N=max(1, n // h**k))


# sums of fewer members never beat singletons
_MIN_MEMBERS = 2


class _SumIndex:
    """A structure's stored sums, one closed box each, in one structure of
    arrays.

    ``box_lo`` and ``box_hi`` hold each box's bounds, in the row order the
    structure gives them; ``counts`` and ``values`` hold the number and the
    semigroup sum of the input points inside each box, from one
    ``box_sums`` call: ``sg.reduce(values[rows])`` is the sum of the boxes
    ``rows``.  ``by_hi0`` is (rows, bounds, multi): the rows that hold a
    point, in ``box_hi[:, 0]`` order (ties in row order), with their [lo |
    hi] bounds copied dimension-major, and whether each holds two or more
    points.
    """

    def __init__(self, box_lo, box_hi, point_coords, w, sg: Semigroup):
        self.box_lo, self.box_hi = box_lo, box_hi
        self.counts, self.values = box_sums(point_coords, w, sg, box_lo, box_hi)
        rows = np.flatnonzero(self.counts >= 1)
        rows = rows[np.argsort(box_hi[rows, 0], kind="stable")]
        bounds = np.hstack((box_lo[rows], box_hi[rows])).T.copy()
        self.by_hi0 = rows, bounds, self.counts[rows] >= _MIN_MEMBERS

    @property
    def s_plus(self) -> int:
        """Storage: stored sums holding at least two points."""
        return int(np.count_nonzero(self.counts >= _MIN_MEMBERS))

    def inside(self, qlo, qhi):
        """The positions in ``by_hi0`` of the sums inside the closed box
        [qlo, qhi], ascending int64: the rows are ``by_hi0[0][pos]``."""
        # every box has lo <= hi, so one inside has hi0 in [qlo0, qhi0]: that
        # window of the view, tested on its other 2d - 1 bounds, is exact
        d = len(qlo)
        bounds = self.by_hi0[1]
        start, stop = bounds[d].searchsorted(qlo[0]), bounds[d].searchsorted(qhi[0], side="right")
        ok = bounds[0, start:stop] >= qlo[0]
        for c in range(1, d):
            ok &= bounds[c, start:stop] >= qlo[c]
            ok &= bounds[d + c, start:stop] <= qhi[c]
        return start + ok.nonzero()[0]


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
    (blocks, box_lo, box_hi, code).  Rows are in block order: (orientation,
    then family index), then the dim-0 point coordinate; ``blocks`` maps
    each non-empty block's (orientation, index) to its row range (start,
    stop), and ``code`` holds each box's orientation number, its
    orientation's index in ``itertools.product((L, R), repeat=k)`` (the
    order of ``decompose_query``'s pieces).

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
    blocks, parts, start = {}, [], 0
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
        code = sum(1 << i for i, side in enumerate(reversed(orient)) if side == _R)
        parts.append((box_lo, box_hi, np.full(len(pts), code, dtype=np.int64)))
        sizes = np.bincount(set_no[defined], minlength=len(keys)).tolist()
        ends = (start + np.cumsum(sizes)).tolist()
        blocks.update(((orient, idx), (e - n, e)) for idx, n, e in zip(keys, sizes, ends) if n)
        start += len(pts)
    return blocks, *(np.concatenate(c) for c in zip(*parts))


class IdsStructure:
    """The anchored boxes' sums in a ``_SumIndex``, in ``_anchored_boxes``'
    row order, with its block map (``blocks``) and, per ``by_hi0`` row, its
    box's orientation number (``codes``)."""

    def __init__(self, points: WeightedPointSet, sg: Semigroup, config: IdsConfig, weights=None):
        _check_k(config.k, points.d)
        self.points = points
        self.sg = sg
        self.config = config
        self._w = sg.weights(points, weights)
        self.trees = [build_dyadic_tree(0.0, 1.0, config.h) for _ in range(config.k)]
        self.family: CwdFamily = build_cwd_family(config.N, config.h, config.k, points.d)
        self.grid = GridIndex(points.coords)
        self.blocks, box_lo, box_hi, code = _anchored_boxes(self.family, config.k)  # its temporaries are freed here
        self.sums = _SumIndex(box_lo, box_hi, points.coords, self._w, sg)
        self.codes = code[self.sums.by_hi0[0]]
        self.num_boxes = len(self.sums.counts)

    # -- reporting ---------------------------------------------------------

    @property
    def s_plus(self) -> int:
        return self.sums.s_plus

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
    k, d = struct.config.k, struct.points.d
    if q.dims != d:
        raise MalformedQuery(f"query has {q.dims} dims, structure has {d}")
    if any(math.isnan(v) for v in q.lo + q.hi):
        raise MalformedQuery("query bounds must not be NaN")
    for i in range(k):
        if q.lo[i] == NEG_INF:
            raise MalformedQuery(f"dimension {i} must be two-sided")
    for i in range(k, d):
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


def _side_cover(struct: IdsStructure, piece: AnchoredPiece, i: int):
    """The cover of the piece's i-th side: (first, last, corner, spans).

    ``first`` and ``last`` are the leaf ranks of the piece root's first and
    last leaves, and ``corner`` the corner's leaf rank clamped into them;
    row D of ``spans`` is the u-interval [a(u), b(u)] of the pair at depth D
    (NaN at a depth with no pair).  A prefix cover has a pair at each 1 bit
    of the corner's rank below the root, a suffix cover at each 0 bit.
    """
    h = struct.config.h
    root = piece.vnodes[i]
    right = piece.orientation[i] == _R
    first = root.rank << (h - root.depth)
    last = first + (1 << (h - root.depth)) - 1
    corner = int(min(max((piece.hi[i] if right else piece.lo[i]) * (1 << h), first), last))
    pairs = (balanced_prefix_cover if right else suffix_cover)(struct.trees[i], Node(h, corner), root=root)
    spans = np.full((h + 1, 2), np.nan)
    for u, _ in pairs:
        spans[u.depth] = u.rank / (1 << u.depth), (u.rank + 1) / (1 << u.depth)
    return first, last, corner, spans


def _point_labels(h: int, cover, x: np.ndarray) -> np.ndarray:
    """Cover labels of the coordinates ``x`` under a ``_side_cover``: the
    depth of the pair whose u-interval holds each, or -1 in the leaf tail
    (the corner's leaf).  In leaf ranks, with the corner's and each point's
    clamped into the root's leaves, a point and the corner first part at
    the depth of the highest bit of their XOR, and the pair there holds the
    point.  So one formula labels both sides, and the pairs only give the
    spans."""
    first, last, corner, _ = cover
    xor = np.minimum(np.maximum(x * (1 << h), first), last).astype(np.int64) ^ corner
    return np.where(xor, h + 1 - np.frexp(xor)[1], -1)


def _spanning(sums: _SumIndex, codes: np.ndarray, spans: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The positions ``pos`` of ``sums.by_hi0`` whose box spans one
    u-interval of its own side's cover in every two-sided dimension: no
    other row can be a cover tuple's candidate.

    ``spans[j, s]`` holds the (dimension j, side s) cover's u-intervals by
    depth (s = 0 for L, 1 for R; NaN rows where there is no pair); a row's
    side in dimension j is bit k - 1 - j of its orientation number, which
    ``codes`` holds per position (``IdsStructure.codes``).  The
    intervals of one cover are disjoint, so the first that starts at or
    above a row's low face has the smallest end, and the row spans some
    interval iff it spans that one.  Every box's two-sided bounds lie in
    [0, 1], as do the intervals, so shifting cover (j, s) and its rows by
    2 (2j + s) puts every cover in one sorted table, searched once for all
    dimensions; its NaN rows sort last and compare false.
    """
    bounds = sums.by_hi0[1]
    k = spans.shape[0]
    d = len(bounds) // 2
    shift = 2.0 * np.arange(2 * k).reshape(k, 2)
    table = (spans + shift[:, :, None, None]).reshape(-1, 2)
    table = table[table[:, 0].argsort()]
    own = shift[:, :1] + 2.0 * ((codes[pos] >> np.arange(k - 1, -1, -1)[:, None]) & 1)  # (k, rows)
    at = table[:, 0].searchsorted(bounds[:k, pos] + own)
    return pos[np.logical_and.reduce(table[at, 1] <= bounds[d : d + k, pos] + own, axis=0)]


def _tuple_candidates(
    sums: _SumIndex, codes: np.ndarray, pos: np.ndarray, tuple_codes: np.ndarray, a: np.ndarray, b: np.ndarray
):
    """Usable stored sums of every cover-pair tuple of a query.

    ``pos`` holds positions in ``sums.by_hi0`` of sums inside the query
    (its ``inside`` result, or a part of it), and ``codes`` each position's
    orientation number.  Tuple t belongs to the piece whose orientation
    number is ``tuple_codes[t]``, and row t of ``a`` and ``b``
    holds its u-interval ends, one column per two-sided dimension.  A sum
    inside the query works for a tuple iff it has the tuple's orientation
    and its box spans the tuple's interval in every two-sided dimension;
    coverage of a target then reduces to dominance in the remaining
    dimensions.

    One (tuple x position) mask tests the orientation numbers and the bound
    columns, and only its hits are sorted back to (tuple, block) order.
    Returns (tuples, rows): tuple t's candidates are ``rows[tuples == t]``,
    in block order.
    """
    rows, bounds, _ = sums.by_hi0
    d = len(bounds) // 2
    mask = codes[pos] == tuple_codes[:, None]
    for j in range(a.shape[1]):
        mask &= bounds[j, pos] <= a[:, j, None]
        mask &= bounds[d + j, pos] >= b[:, j, None]
    t, c = np.divmod(mask.ravel().nonzero()[0], pos.size)  # a 2-d nonzero takes about twice as long
    key = t * len(sums.counts) + rows[pos[c]]
    key.sort()
    return np.divmod(key, len(sums.counts))


_NONE = np.empty(0, dtype=np.int64)


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Whether each entry of the sorted ``a`` starts a run of equal ones."""
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _first_uses(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, each at its first position."""
    order = a.argsort(kind="stable")  # each run of equal entries starts at its first position
    return a[np.sort(order[_run_starts(a[order])])]


def _cover_pieces(struct: IdsStructure, pieces: list[AnchoredPiece], pos: np.ndarray, qlo: np.ndarray, qhi: np.ndarray):
    """Dominance covers of every cover-pair tuple of all anchored pieces in
    one pass (no compression yet).  The pieces tile the containment box
    [qlo, qhi], and ``pos`` is its ``_SumIndex.inside`` result.  Returns
    (rows, leftover): the used sum rows, in (piece, tuple) order, and the
    indices of the points no used sum covers.  Each is listed once, at its
    first use, so paid once, though a sum may serve several tuples and a
    midpoint point several pieces.

    One dim-0 window takes the box's points.  Each (dimension, side) cover
    is built once, before any point is labelled (``_side_cover``).  When
    ``pos`` holds fewer sums than the box holds points, the covers'
    u-intervals first narrow it to the rows that could serve some tuple
    (``_spanning``), an O(rows) test that can spare the O(points) labelling
    below: if no row survives, no tuple has a candidate, so the cover is no
    rows and every point of the box, in dim-0 order (the greedy breaks ties
    on pool order, so costs do not depend on it).  Otherwise
    each cover labels only the points on its side (``_point_labels``); a
    point on a split midpoint lies on both sides, so it joins every piece
    whose closed side holds it.  Each (point, piece) entry is keyed by
    (piece, depth label tuple), raveled so that tuples, and with them used
    sums, run in piece order (that of ``decompose_query``), then tuple
    order: depth order is the covers' pair order.  One ``_tuple_candidates``
    call over the (narrowed) positions gives every tuple its candidates,
    listed in (tuple, block) order, and one ``dominance_cover`` call takes
    every tuple as a group: a target meets only its own tuple's maxima, and
    a tuple with no candidates covers none of its targets.  The maxima come
    back in candidate order, so the used sums keep their (piece, tuple)
    order.
    """
    k, h = struct.config.k, struct.config.h
    target_idx = struct.grid.points_in_box(qlo, qhi)
    if target_idx.size == 0:
        return _NONE, _NONE
    covers = {}  # (dim, side) -> (a piece on that side, its cover)
    spans = np.full((k, 2, h + 1, 2), np.nan)  # [dim, side, depth]: that cover pair's u-interval
    for piece in pieces:
        for i, side in enumerate(piece.orientation):
            if (i, side) not in covers:
                cover = _side_cover(struct, piece, i)
                covers[i, side] = piece, cover
                spans[i, int(side == _R)] = cover[3]
    if pos.size < target_idx.size:  # the filter costs O(rows), the labels it may spare O(points)
        pos = _spanning(struct.sums, struct.codes, spans, pos)
        if pos.size == 0:
            return _NONE, target_idx  # no tuple can have a candidate: every point is a leftover
    tcoords = struct.points.coords[target_idx]
    ent = np.arange(target_idx.size)  # entry -> target position
    piece_code = np.zeros(target_idx.size, dtype=np.int64)  # bit i: the entry's side in dim i
    labels: list = []  # per dimension, the entries' depth labels
    for i in range(k):
        x = tcoords[ent, i]
        parts = []
        for bit, side in enumerate((_L, _R)):
            if (i, side) not in covers:
                continue
            piece, cover = covers[i, side]
            on = (x <= piece.hi[i] if side == _L else x >= piece.lo[i]).nonzero()[0]  # closed at the split
            if on.size:
                parts.append((on, 2 * piece_code[on] + bit, _point_labels(h, cover, x[on])))
        on, piece_code, lab = (np.concatenate(c) for c in zip(*parts))  # each side keeps its entries' order
        ent = ent[on]
        labels = [c[on] for c in labels] + [lab]
    singles = np.minimum.reduce(labels) < 0
    leftover = [ent[singles]]  # leaf-tail points, as target positions
    paired = (~singles).nonzero()[0]
    if paired.size == 0:
        return _NONE, target_idx[_first_uses(leftover[0])]
    ent = ent[paired]
    dims = (1 << k, *[h + 1] * k)
    keys = np.ravel_multi_index((piece_code[paired], *(c[paired] for c in labels)), dims)
    order = keys.argsort(kind="stable")  # by tuple, each tuple's entries in index order
    ent, keys = ent[order], keys[order]
    first = _run_starts(keys)
    tuples = np.stack(np.unravel_index(keys[first], dims), axis=1)  # piece code, then labels
    codes = tuples[:, 0]
    sides = (codes[:, None] >> np.arange(k - 1, -1, -1)) & 1  # per dimension, 0 for L and 1 for R
    ab = spans[np.arange(k), sides, tuples[:, 1:]]
    groups, cand = _tuple_candidates(struct.sums, struct.codes, pos, codes, ab[..., 0], ab[..., 1])
    m_idx, covered, took = dominance_cover(
        struct.sums.box_hi[cand, k:], tcoords[ent, k:], groups, first.cumsum() - 1
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

    Exact and incremental.  Every box gets its containment as a bit row
    (``_inside_bits``); only boxes holding two or more points can be picked,
    as gains only fall, and a pick subtracts from each gain just the
    popcount of the points it newly covers.  ``_compress`` hands it only
    boxes that hold two or more points in every single dimension.
    """
    m = len(pts)
    bits = _inside_bits(pts, box_lo, box_hi)
    count = np.add.reduce  # the ufunc's own reduce: ndarray.sum runs a Python wrapper first
    gains = count(np.bitwise_count(bits), axis=1, dtype=np.int64)
    rows = (gains >= 2).nonzero()[0]
    bits, gains = bits[rows], gains[rows]
    alive = np.full(bits.shape[1], np.iinfo(np.uint64).max, dtype=np.uint64)
    alive[-1] >>= np.uint64(-m % 64)  # no padding bits
    picks: list[int] = []
    while gains.size:
        best = int(gains.argmax())
        if gains[best] < 2:
            break
        picks.append(int(rows[best]))
        newly = bits[best] & alive
        alive ^= newly
        w = newly.nonzero()[0]
        gains -= count(np.bitwise_count(bits[:, w] & newly[w]), axis=1, dtype=np.int64)
    return picks, _unpack(alive, m)


def _compress(struct: IdsStructure, pos: np.ndarray, rows: np.ndarray, leftover: np.ndarray):
    """Resolve leftovers: drop those a used sum ``rows`` already covers,
    reuse any sum at the query's ``inside`` positions ``pos`` that absorbs
    two or more of the rest (``_greedy_cover``), then fall back to
    singletons.  Returns the cover (rows, leftover): ``rows`` followed by
    the greedy's picks, and the points left as singletons.

    The greedy's pool narrows ``pos`` to its rows of two or more members,
    and of those to the boxes that hold two or more leftovers in every
    single dimension (no other box can hold two).  A one-sided dimension,
    whose low faces are all -inf, takes one compare with the
    second-smallest leftover; a two-sided one a ``searchsorted`` of the low
    faces into the sorted leftovers, whose next one must lie at or below
    the high face.  Only the survivors' rows are gathered and sorted.
    Strictly reduces cost; exactness and containment are unaffected because
    absorption is a full-coordinate box test against sums already known to
    sit inside the query.
    """
    pts = struct.points.coords[leftover]
    sums = struct.sums
    if rows.size and leftover.size:
        covered = _unpack(np.bitwise_or.reduce(_inside_bits(pts, sums.box_lo[rows], sums.box_hi[rows])), len(pts))
        leftover, pts = leftover[~covered], pts[~covered]
    m = leftover.size
    if m < 2:
        return rows, leftover
    view, bounds, multi = sums.by_hi0
    d, k = pts.shape[1], struct.config.k
    srt = np.full((m + 2, d), np.nan)  # two NaN rows: they sort last and compare false
    srt[:m] = pts
    srt[:m].sort(axis=0)
    # take and compress: on 10^4 positions about twice as fast as [] indexing (numpy 2.4, Xeon)
    keep = multi.take(pos)
    for j in range(k, d):  # lo = -inf: two leftovers iff hi >= the second-smallest
        keep &= bounds[d + j].take(pos) >= srt[1, j]
    pos = pos.compress(keep)
    for j in range(k):  # two leftovers iff the second at or above lo lies at or below hi
        col = srt[:, j]
        pos = pos.compress(col.take(col.searchsorted(bounds[j].take(pos)) + 1) <= bounds[d + j].take(pos))
    pool = np.sort(view[pos])  # block order, so the greedy breaks ties as a block scan would
    picks, uncovered = _greedy_cover(pts, sums.box_lo[pool], sums.box_hi[pool])
    return np.concatenate((rows, pool[picks])), leftover[uncovered]


def _evaluate(struct, rows: np.ndarray, leftover: np.ndarray) -> QueryAnswer:
    """Fold a cover of either structure: one ``reduce`` of the stored sums
    ``rows`` (one gather of their weights), one of the singletons
    ``leftover``, then the two."""
    parts = [struct.sg.reduce(struct.sums.values[rows])] if rows.size else []
    if leftover.size:
        parts.append(singleton_value(struct.sg, leftover, struct._w))
    value = fold_values(parts, struct.sg) if parts else None
    return QueryAnswer(value, sums_used=int(rows.size), singletons_used=int(leftover.size))


def usable_sums(struct: IdsStructure, q: Box):
    """Stored sums of two or more members whose box sits inside q, as
    (value, box, count) triples: the exact-cover oracle's available sums."""
    sums = struct.sums
    pos = sums.inside(np.asarray(q.lo), np.asarray(q.hi))
    rows, _, multi = sums.by_hi0
    rows = np.sort(rows[pos[multi[pos]]])
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
        pos = struct.sums.inside(qlo, qhi)
        rows, leftover = _compress(struct, pos, *_cover_pieces(struct, pieces, pos, qlo, qhi))
    lo, hi = struct.sums.box_lo[rows], struct.sums.box_hi[rows]
    if np.any(lo < qlo) or np.any(hi > qhi):
        raise AssertionError("used sum escapes the query box")
    ans = _evaluate(struct, rows, leftover)
    if not return_audit:
        return ans
    return ans, [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


class DominanceStructure:
    """Sampled dominance sums: sample s stores the sum of the input points
    it dominates, as the box (-inf, s] of a ``_SumIndex`` (row i is sample
    i).  Immutable after build; queries are pure."""

    def __init__(self, points: WeightedPointSet, sg: Semigroup, samples: np.ndarray, weights):
        self.points = points
        self.sg = sg
        self.samples = samples
        self._w = weights  # sg.weights: ids themselves for idset
        self.grid = GridIndex(points.coords)
        self.sums = _SumIndex(np.full_like(samples, NEG_INF), samples, points.coords, weights, sg)

    @property
    def num_sums(self) -> int:
        return len(self.samples)

    @property
    def s_plus(self) -> int:
        return self.sums.s_plus


def build_dominance(points: WeightedPointSet, s: int, sg: Semigroup, *, samples=None, weights=None) -> DominanceStructure:
    """Sample sums built by one batched ``box_sums``; default samples are a Hammersley set."""
    if not 1 <= s <= len(points):
        raise ValueError(f"sample count {s} outside 1..{len(points)}")
    if samples is None:
        samples = hammersley_wd(s, points.d).coords
    else:
        samples = np.atleast_2d(np.asarray(samples, dtype=np.float64))
        if len(samples) != s or samples.shape[1] != points.d:
            raise ValueError("samples shape must be (s, d)")
        if np.isnan(samples).any():
            raise ValueError("samples must not be NaN")
    return DominanceStructure(points, sg, samples, sg.weights(points, weights))


def dominance_query(ds: DominanceStructure, q) -> QueryAnswer:
    """Answer the dominance range (-inf, q_1] x ... x (-inf, q_d]: the
    maxima of the live samples (those inside it with a point) use their
    sums, and the targets no maximum dominates are singletons."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (ds.points.d,):
        raise MalformedQuery(f"query has shape {q.shape}, structure has {ds.points.d} dims")
    if np.isnan(q).any():
        raise MalformedQuery("query bounds must not be NaN")
    qlo = np.full(ds.points.d, NEG_INF)
    target_idx = ds.grid.points_in_box(qlo, q)
    if target_idx.size == 0:
        return QueryAnswer(None, 0, 0)
    live = np.sort(ds.sums.by_hi0[0][ds.sums.inside(qlo, q)])  # sample order: maxima break ties on it
    m_idx, covered, _ = dominance_cover(ds.samples[live], ds.points.coords[target_idx])
    return _evaluate(ds, live[m_idx], target_idx[~covered])
