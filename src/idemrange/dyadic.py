"""Implicit balanced binary trees over an interval, and balanced prefix covers.

Nodes are addressed by (depth, rank); intervals are computed, never stored.
A balanced prefix cover of a leaf v is a short sequence of adjacent node
pairs (u_i, w_i), b(u_i) = a(w_i), whose left members' intervals disjointly
tile [z1, a(v)].  The u_i here are the nodes hanging left of the root-to-v
path and each w_i is the path node at the same depth, which keeps the pairs
to at most one per depth (well under the 2-per-depth budget the downstream
candidate-selection argument needs).

In leaf ranks: the path node at depth D is the leaf rank shifted right by
h - D, and it is a right child iff its low bit is 1.  So a prefix cover's
pairs sit at the 1 bits of the leaf rank below the root's depth, and a
suffix cover's (u_i the right neighbor of w_i) at its 0 bits.  A leaf x
then lies in the u-interval of the pair at the depth of the highest bit in
which x's rank and the cover's leaf rank differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["Node", "DyadicTree", "PrefixCoverPair", "build_dyadic_tree", "balanced_prefix_cover", "suffix_cover"]


class Node(NamedTuple):
    depth: int
    rank: int


class PrefixCoverPair(NamedTuple):
    u: Node  # left neighbor of w: equal depth, b(u) = a(w)
    w: Node


@dataclass(frozen=True)
class DyadicTree:
    z1: float
    z2: float
    height: int

    def __post_init__(self):
        if not self.z1 < self.z2:
            raise ValueError("need z1 < z2")
        if not 0 <= self.height <= 30:
            raise ValueError("height must be in 0..30")

    def _check(self, node: Node) -> None:
        if not (0 <= node.depth <= self.height and 0 <= node.rank < (1 << node.depth)):
            raise ValueError(f"{node} not in tree of height {self.height}")

    def width(self, depth: int) -> float:
        return (self.z2 - self.z1) / (1 << depth)

    def a(self, node: Node) -> float:
        self._check(node)
        return self.z1 + node.rank * self.width(node.depth)

    def b(self, node: Node) -> float:
        self._check(node)
        return self.z1 + (node.rank + 1) * self.width(node.depth)

    def m(self, node: Node) -> float:
        return 0.5 * (self.a(node) + self.b(node))

    def interval(self, node: Node) -> tuple[float, float]:
        return self.a(node), self.b(node)

    def is_leaf(self, node: Node) -> bool:
        return node.depth == self.height

    def left_child(self, node: Node) -> Node:
        return Node(node.depth + 1, node.rank * 2)

    def right_child(self, node: Node) -> Node:
        return Node(node.depth + 1, node.rank * 2 + 1)

    def parent(self, node: Node) -> Node:
        return Node(node.depth - 1, node.rank // 2)

    def left_neighbor(self, node: Node) -> Node | None:
        return Node(node.depth, node.rank - 1) if node.rank > 0 else None

    def right_neighbor(self, node: Node) -> Node | None:
        return Node(node.depth, node.rank + 1) if node.rank + 1 < (1 << node.depth) else None

    def is_ancestor(self, anc: Node, node: Node) -> bool:
        """Ancestor-or-self."""
        return anc.depth <= node.depth and (node.rank >> (node.depth - anc.depth)) == anc.rank

    def node_containing(self, x: float, depth: int) -> Node:
        """Node at ``depth`` whose half-open slab holds x (last slab closed)."""
        if not self.z1 <= x <= self.z2:
            raise ValueError(f"x={x} outside [{self.z1}, {self.z2}]")
        span = 1 << depth
        rank = min(span - 1, int((x - self.z1) / (self.z2 - self.z1) * span))
        return Node(depth, rank)

    def locate_leaf(self, x: float) -> Node:
        return self.node_containing(x, self.height)


def build_dyadic_tree(z1: float, z2: float, height: int) -> DyadicTree:
    return DyadicTree(z1, z2, height)


def _subtree_path_pairs(tree: DyadicTree, leaf: Node, root: Node, want_odd: bool):
    if not tree.is_leaf(leaf):
        raise ValueError("cover is defined for leaves")
    if not tree.is_ancestor(root, leaf):
        raise ValueError("leaf not under the given root")
    pairs = []
    for depth in range(root.depth + 1, tree.height + 1):
        r = leaf.rank >> (tree.height - depth)
        if (r % 2 == 1) == want_odd:
            if want_odd:
                pairs.append(PrefixCoverPair(Node(depth, r - 1), Node(depth, r)))
            else:
                pairs.append(PrefixCoverPair(Node(depth, r + 1), Node(depth, r)))
    return pairs


def balanced_prefix_cover(tree: DyadicTree, leaf: Node, root: Node = Node(0, 0)) -> list[PrefixCoverPair]:
    """Pairs (u_i, w_i) whose u-intervals disjointly tile [a(root), a(leaf)].

    At most one pair per depth, so the length is at most the height.  The
    leftmost leaf has an empty prefix and yields no pairs.
    """
    return _subtree_path_pairs(tree, leaf, root, want_odd=True)


def suffix_cover(tree: DyadicTree, leaf: Node, root: Node = Node(0, 0)) -> list[PrefixCoverPair]:
    """Mirror image: u-intervals tile [b(leaf), b(root)], a(u_i) = b(w_i)."""
    return _subtree_path_pairs(tree, leaf, root, want_odd=False)
