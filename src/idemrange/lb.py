"""Geometric stress harness: representative diagrams, sum placement, the
hard query distribution, subproblems, top boxes, eligibility, exact covers.

The harness treats trees of height h as h horizontal bands of the unit
square, one per cut-bearing depth 0..h-1; sampling a uniform point in the
square picks a node with uniform depth.  Defining nodes of subproblems must
carry a band, so check I is depth(u) <= h-1; check II asks that the node
over the query point at that depth is a right child.  Nothing here proves
the lower bound: the potentials are counted, never bounded.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicTree, Node
from .errors import IneligibleSum, TooLarge
from .geometry import NEG_INF, Box
from .points import WeightedPointSet

__all__ = [
    "RepDiagram",
    "build_rep_diagram",
    "HardQuery",
    "sample_hard_query",
    "sample_hard_queries",
    "PlacedSum",
    "place_sum",
    "place_sum_diagram",
    "place_sums",
    "bounding_sum_box",
    "Subproblem",
    "subproblem",
    "count_defined_subproblems",
    "check_rates",
    "top_box",
    "extension",
    "eligible_sums",
    "lambda_points",
    "min_cover",
    "min_cover_enumerate",
]


# -- representative diagram ------------------------------------------------


@dataclass(frozen=True)
class RepDiagram:
    """Planar tiling of the unit square encoding one tree.

    Band b (from the top, height 1/h each) holds the regions of the depth-b
    nodes; a node's region spans exactly its slab horizontally, so the cut
    below the region's bottom midpoint is the node's split line.
    """

    tree: DyadicTree

    @property
    def bands(self) -> int:
        return self.tree.height

    def region(self, node: Node) -> Box:
        if node.depth >= self.bands:
            raise ValueError(f"depth {node.depth} has no band (tree height {self.tree.height})")
        a, b = self.tree.interval(node)
        h = self.bands
        top = 1.0 - node.depth / h
        return Box((a, top - 1.0 / h), (b, top))

    def node_at(self, x: float, z: float) -> Node:
        h = self.bands
        depth = min(h - 1, max(0, int((1.0 - z) * h)))
        rank = min((1 << depth) - 1, max(0, int(x * (1 << depth))))
        return Node(depth, rank)


def build_rep_diagram(tree: DyadicTree) -> RepDiagram:
    if tree.height < 1:
        raise ValueError("diagram needs a tree of height >= 1")
    return RepDiagram(tree)


# -- hard query distribution -------------------------------------------------


@dataclass(frozen=True)
class HardQuery:
    """One draw of the adversarial (2d-1)-sided query distribution."""

    trees: tuple[DyadicTree, ...]
    x: tuple[float, ...]
    z: tuple[float, ...]
    y: float
    nodes: tuple[Node, ...]

    @property
    def d(self) -> int:
        return len(self.x) + 1

    @property
    def ells(self) -> tuple[int, ...]:
        return tuple(v.depth for v in self.nodes)

    @property
    def x_left(self) -> tuple[float, ...]:
        return tuple(t.a(v) for t, v in zip(self.trees, self.nodes))

    @property
    def box(self) -> Box:
        lo = self.x_left + (NEG_INF,)
        hi = self.x + (self.y,)
        return Box(lo, hi)


def sample_hard_query(rng: np.random.Generator, trees) -> HardQuery:
    """Uniform (x_i, z_i) in each representative square; y uniform."""
    trees = tuple(trees)
    xs, zs, nodes = [], [], []
    for tree in trees:
        diagram = build_rep_diagram(tree)
        x, z = float(rng.random()), float(rng.random())
        xs.append(x)
        zs.append(z)
        nodes.append(diagram.node_at(x, z))
    return HardQuery(trees=trees, x=tuple(xs), z=tuple(zs), y=float(rng.random()), nodes=tuple(nodes))


def sample_hard_queries(rng: np.random.Generator, trees, count: int) -> dict:
    """Vectorized sampler; arrays keyed by field, one row per draw."""
    trees = tuple(trees)
    dm1 = len(trees)
    x = rng.random((count, dm1))
    z = rng.random((count, dm1))
    y = rng.random(count)
    ells = np.empty((count, dm1), dtype=np.int64)
    ranks = np.empty((count, dm1), dtype=np.int64)
    for i, tree in enumerate(trees):
        h = tree.height
        ells[:, i] = np.minimum(h - 1, ((1.0 - z[:, i]) * h).astype(np.int64))
        span = np.int64(1) << ells[:, i]
        ranks[:, i] = np.minimum(span - 1, (x[:, i] * span).astype(np.int64))
    return {"x": x, "z": z, "y": y, "ells": ells, "ranks": ranks}


# -- placing sums -------------------------------------------------------------


@dataclass(frozen=True)
class PlacedSum:
    box: Box  # lowest dim may be NEG_INF below
    nodes: tuple[Node, ...]


def bounding_sum_box(coords: np.ndarray) -> Box:
    """Smallest box unbounded below in the last axis containing the points."""
    coords = np.atleast_2d(coords)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    return Box(tuple(lo[:-1]) + (NEG_INF,), tuple(hi))


def place_sum(box: Box, trees) -> tuple[Node, ...]:
    """Per tree: highest node whose cut line strictly crosses the marker
    extent; a no-crossing extent lands on its containing leaf."""
    out = []
    for i, tree in enumerate(trees):
        lo, hi = box.lo[i], box.hi[i]
        node = Node(0, 0)
        while not tree.is_leaf(node):
            mid = tree.m(node)
            if hi <= mid:
                node = tree.left_child(node)
            elif lo >= mid:
                node = tree.right_child(node)
            else:
                break
        out.append(node)
    return tuple(out)


def place_sum_diagram(box: Box, trees) -> tuple[Node, ...]:
    """Diagram formulation: lowest region whose horizontal extent holds the
    marker, descending to the leaf when even the deepest region contains it.

    Independent arithmetic from place_sum; the two must agree.
    """
    out = []
    for i, tree in enumerate(trees):
        lo, hi = box.lo[i], box.hi[i]
        chosen = Node(0, 0)
        for depth in range(tree.height + 1):
            span = 1 << depth
            rank = min(span - 1, int(lo * span))
            if tree.a(Node(depth, rank)) <= lo and hi <= tree.b(Node(depth, rank)):
                chosen = Node(depth, rank)
            else:
                break
        out.append(chosen)
    return tuple(out)


def place_sums(boxes, trees) -> list[PlacedSum]:
    return [PlacedSum(box=b, nodes=place_sum(b, trees)) for b in boxes]


# -- subproblems ---------------------------------------------------------------


@dataclass(frozen=True)
class Subproblem:
    query: HardQuery
    jvec: tuple[int, ...]
    defined: bool
    failed_check: str | None = None  # "I" or "II"
    failed_dim: int | None = None
    nodes: tuple[Node, ...] | None = None  # defining nodes u_i
    region: Box | None = None  # slab intersection below y


def subproblem(hq: HardQuery, jvec) -> Subproblem:
    """Defined iff every dimension passes check I (a band exists at depth
    ell_i + j_i) and check II (the node over the query point there is a
    right child, so its left sibling defines the subproblem)."""
    jvec = tuple(int(j) for j in jvec)
    if any(j < 1 for j in jvec):
        raise ValueError("j indices start at 1")
    nodes = []
    for i, (tree, v, j) in enumerate(zip(hq.trees, hq.nodes, jvec)):
        depth = v.depth + j
        if depth > tree.height - 1:
            return Subproblem(hq, jvec, defined=False, failed_check="I", failed_dim=i)
        w = tree.node_containing(hq.x[i], depth)
        if w.rank % 2 == 0:
            return Subproblem(hq, jvec, defined=False, failed_check="II", failed_dim=i)
        nodes.append(Node(depth, w.rank - 1))
    lo = tuple(t.a(u) for t, u in zip(hq.trees, nodes)) + (NEG_INF,)
    hi = tuple(t.b(u) for t, u in zip(hq.trees, nodes)) + (hq.y,)
    return Subproblem(hq, jvec, defined=True, nodes=tuple(nodes), region=Box(lo, hi))


def count_defined_subproblems(hq: HardQuery, jmax: int) -> int:
    """Number of defined j-tuples in {1..jmax}^(d-1); per-dim independence."""
    per_dim = []
    for i, (tree, v) in enumerate(zip(hq.trees, hq.nodes)):
        cnt = 0
        for j in range(1, jmax + 1):
            depth = v.depth + j
            if depth > tree.height - 1:
                continue
            if tree.node_containing(hq.x[i], depth).rank % 2 == 1:
                cnt += 1
        per_dim.append(cnt)
    return math.prod(per_dim) if per_dim else 0


def check_rates(batch: dict, h: int, js) -> dict:
    """Per probe depth j, over dimension 0 of a ``sample_hard_queries``
    batch: (check-I fail rate, check-II fail rate among the check-I passes,
    None when no draw passes check I)."""
    ells = batch["ells"][:, 0]
    x = batch["x"][:, 0]
    rates = {}
    for j in js:
        fail_i = ells + j > h - 1
        passing = ~fail_i
        span = np.int64(1) << (ells[passing] + j)
        ranks = np.minimum(span - 1, (x[passing] * span).astype(np.int64))
        rates[j] = float(np.mean(fail_i)), float(np.mean(ranks % 2 == 0)) if passing.any() else None
    return rates


def lambda_points(delta: float, h: int, jvec, n: int, s_plus: int) -> int:
    """Target top-box size: delta * h^(d-1) / prod(j) * n / S+; at least 1."""
    jvec = tuple(jvec)
    prod_j = 1
    for j in jvec:
        prod_j *= j
    return max(1, int(round(delta * h ** len(jvec) / prod_j * n / max(1, s_plus))))


def top_box(points: WeightedPointSet, sub: Subproblem, lam: int):
    """Box over the subproblem slabs holding exactly ``lam`` points, anchored
    just below the query's Y bound; None when too few points fit."""
    if not sub.defined:
        raise ValueError("subproblem is undefined")
    if lam < 1:
        raise ValueError("lambda must be >= 1")
    hq = sub.query
    coords = points.coords
    mask = coords[:, -1] <= hq.y
    for i, (tree, u) in enumerate(zip(hq.trees, sub.nodes)):
        a, b = tree.interval(u)
        mask &= (coords[:, i] >= a) & (coords[:, i] <= b)
    idx = np.nonzero(mask)[0]
    if idx.size < lam:
        return None
    ys = coords[idx, -1]
    order = np.argsort(ys)[::-1]
    bottom = float(ys[order[lam - 1]])
    chosen = idx[order[:lam]]
    lo = tuple(tree.a(u) for tree, u in zip(hq.trees, sub.nodes)) + (bottom,)
    hi = tuple(tree.b(u) for tree, u in zip(hq.trees, sub.nodes)) + (hq.y,)
    return Box(lo, hi), np.sort(chosen)


def extension(sum_box: Box, sub: Subproblem) -> Box:
    """Widen the first d-1 sides to include r(u_i); the Y side is untouched."""
    if not sub.defined:
        raise ValueError("subproblem is undefined")
    lo = list(sum_box.lo)
    hi = list(sum_box.hi)
    for i, (tree, u) in enumerate(zip(sub.query.trees, sub.nodes)):
        a, b = tree.interval(u)
        if sum_box.hi[i] < a or sum_box.lo[i] > b:
            raise IneligibleSum(f"sum extent misses r(u) in dimension {i}")
        lo[i] = min(lo[i], a)
        hi[i] = max(hi[i], b)
    return Box(tuple(lo), tuple(hi))


def eligible_sums(placed, hq: HardQuery, sub: Subproblem, t: int | None = None) -> np.ndarray:
    """Indices of sums not excluded by the placement observations.

    Full mode (t is None): per dimension the sum must sit in the subtree of
    v_i and either on the path v_i..parent(u_i) (case i) or in the subtree
    of u_i (case ii).  Partial mode fixes dimensions 1..t and restricts them
    to strict case (i), dropping sums already known to stick out of the
    query or to miss the subproblem slab.
    """
    if not sub.defined:
        return np.empty(0, dtype=np.int64)
    out = []
    for s_idx, ps in enumerate(placed):
        ok = True
        for i, tree in enumerate(hq.trees):
            w, v, u = ps.nodes[i], hq.nodes[i], sub.nodes[i]
            on_path = tree.is_ancestor(v, w) and tree.is_ancestor(w, u) and w != u
            in_subtree = tree.is_ancestor(u, w)
            if t is not None and i < t:
                if not on_path:
                    ok = False
                    break
                if ps.box.hi[i] > hq.x[i] or ps.box.lo[i] < hq.x_left[i]:
                    ok = False  # known to stick out of the query
                    break
                if ps.box.hi[i] < tree.a(u):
                    ok = False  # cannot reach the subproblem slab
                    break
            elif not (on_path or in_subtree):
                ok = False
                break
        if ok:
            out.append(s_idx)
    return np.asarray(out, dtype=np.int64)


# -- exact minimum cover --------------------------------------------------------


def min_cover(target_ids, sums) -> int:
    """Exact minimum number of sums plus completion singletons covering the
    target; subset DP over at most 20 sums and 20 targets."""
    targets = sorted(set(int(i) for i in target_ids))
    if len(targets) > 20:
        raise TooLarge(f"{len(targets)} targets exceed the guard of 20")
    sums = [frozenset(int(i) for i in s) for s in sums]
    if len(sums) > 20:
        raise TooLarge(f"{len(sums)} sums exceed the guard of 20")
    pos = {p: i for i, p in enumerate(targets)}
    masks = []
    for s in sums:
        m = 0
        for p in s:
            if p in pos:
                m |= 1 << pos[p]
        masks.append(m)
    n_sums = len(masks)
    full = (1 << len(targets)) - 1
    best = len(targets)
    cover = [0] * (1 << n_sums)
    for sel in range(1, 1 << n_sums):
        low = sel & -sel
        cover[sel] = cover[sel ^ low] | masks[low.bit_length() - 1]
        cost = sel.bit_count() + (full & ~cover[sel]).bit_count()
        if cost < best:
            best = cost
    return best


def min_cover_enumerate(target_ids, sums) -> int:
    """Second, independent enumeration: combinations by size with set math."""
    targets = set(int(i) for i in target_ids)
    sums = [set(int(i) for i in s) for s in sums]
    best = len(targets)
    for r in range(1, len(sums) + 1):
        if r >= best:
            break
        for combo in itertools.combinations(range(len(sums)), r):
            covered = set().union(*(sums[c] for c in combo)) & targets
            cost = r + len(targets - covered)
            if cost < best:
                best = cost
    return best
