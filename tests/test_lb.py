import numpy as np
import pytest

import idemrange as ir
from idemrange import NEG_INF, Box
from idemrange.dyadic import Node


def test_diagram_regions_and_lookup():
    t1 = ir.build_dyadic_tree(0.0, 1.0, 1)
    d1 = ir.build_rep_diagram(t1)
    assert d1.bands == 1
    root_region = d1.region(Node(0, 0))
    assert root_region.lo == (0.0, 0.0) and root_region.hi == (1.0, 1.0)
    # any point resolves to the root for a single band
    assert d1.node_at(0.3, 0.9) == Node(0, 0)
    assert d1.node_at(0.3, 0.1) == Node(0, 0)

    t2 = ir.build_dyadic_tree(0.0, 1.0, 2)
    d2 = ir.build_rep_diagram(t2)
    # top band is the root's region
    assert d2.node_at(0.7, 0.95) == Node(0, 0)
    node = d2.node_at(0.7, 0.4)
    region = d2.region(node)
    assert ir.box_contains_point(region, (0.7, 0.4))
    assert node == Node(1, 1)


def test_diagram_bands_tile():
    tree = ir.build_dyadic_tree(0.0, 1.0, 3)
    dia = ir.build_rep_diagram(tree)
    for depth in range(3):
        regions = [dia.region(Node(depth, r)) for r in range(1 << depth)]
        assert regions[0].lo[0] == 0.0 and regions[-1].hi[0] == 1.0
        for a, b in zip(regions, regions[1:]):
            assert a.hi[0] == b.lo[0]
        for r in regions:
            assert r.hi[1] - r.lo[1] == pytest.approx(1 / 3)


def test_diagram_guards():
    with pytest.raises(ValueError):
        ir.build_rep_diagram(ir.build_dyadic_tree(0.0, 1.0, 0))
    dia = ir.build_rep_diagram(ir.build_dyadic_tree(0.0, 1.0, 2))
    with pytest.raises(ValueError):
        dia.region(Node(2, 0))  # leaves carry no band


def _sum_box(x_lo, x_hi, y_top):
    return Box((x_lo, NEG_INF), (x_hi, y_top))


def test_place_sum_examples():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 2)]
    assert ir.place_sum(_sum_box(0.4, 0.6, 0.5), trees) == (Node(0, 0),)  # crosses 0.5
    assert ir.place_sum(_sum_box(0.1, 0.3, 0.5), trees) == (Node(1, 0),)  # crosses 0.25
    assert ir.place_sum(_sum_box(0.05, 0.1, 0.5), trees) == (Node(2, 0),)  # no cut crossed


def test_placement_equivalence_random_sums():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 6), ir.build_dyadic_tree(0.0, 1.0, 6)]
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        a, b = np.sort(rng.random(2))
        c, dd = np.sort(rng.random(2))
        box = Box((a, c, NEG_INF), (b, dd, float(rng.random())))
        assert ir.place_sum(box, trees) == ir.place_sum_diagram(box, trees)


def test_bounding_sum_box():
    coords = np.array([[0.2, 0.9, 0.3], [0.5, 0.1, 0.6]])
    box = ir.bounding_sum_box(coords)
    assert box.lo == (0.2, 0.1, NEG_INF)
    assert box.hi == (0.5, 0.9, 0.6)


def test_ancestor_exclusion_geometry():
    # a sum placed at a proper ancestor of v has a point outside r(v)
    trees = [ir.build_dyadic_tree(0.0, 1.0, 5)]
    rng = np.random.default_rng(21)
    pts = ir.uniform_random(128, 2, seed=23)
    for _ in range(300):
        members = rng.choice(128, size=3, replace=False)
        box = ir.bounding_sum_box(pts.coords[members])
        (w,) = ir.place_sum(box, trees)
        for depth in range(w.depth):
            anc = Node(depth, w.rank >> (w.depth - depth))
            for child_rank in (anc.rank * 2, anc.rank * 2 + 1):
                v = Node(depth + 1, child_rank)
                if trees[0].is_ancestor(v, w):
                    continue
                a, b = trees[0].interval(v)
                xs = pts.coords[members, 0]
                assert np.any((xs < a) | (xs > b))


def test_sample_hard_query_reproducible():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 4)]
    q1 = ir.sample_hard_query(np.random.default_rng(5), trees)
    q2 = ir.sample_hard_query(np.random.default_rng(5), trees)
    assert q1 == q2
    assert q1.box.lo[0] == q1.x_left[0] and q1.box.hi == (q1.x[0], q1.y)
    region = ir.build_rep_diagram(trees[0]).region(q1.nodes[0])
    assert ir.box_contains_point(region, (q1.x[0], q1.z[0]))


def test_hard_query_distribution_small():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 8)]
    batch = ir.sample_hard_queries(np.random.default_rng(3), trees, 20_000)
    counts = np.bincount(batch["ells"][:, 0], minlength=8)
    assert counts.min() > 0.8 * 20_000 / 8
    assert counts.max() < 1.2 * 20_000 / 8


def test_subproblem_checks():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 4), ir.build_dyadic_tree(0.0, 1.0, 4)]
    rng = np.random.default_rng(7)
    hq = ir.sample_hard_query(rng, trees)
    # check I: forcing depth past the last band
    deep = ir.subproblem(hq, (4, 4))
    if any(e + 4 > 3 for e in hq.ells):
        assert not deep.defined and deep.failed_check == "I"
    # hand construction: v = root, query point in the left half -> check II fails
    hq2 = ir.HardQuery(
        trees=tuple(trees),
        x=(0.2, 0.7),
        z=(0.95, 0.95),
        y=0.5,
        nodes=(Node(0, 0), Node(0, 0)),
    )
    sub = ir.subproblem(hq2, (1, 1))
    assert not sub.defined and sub.failed_check == "II" and sub.failed_dim == 0
    # both checks pass: x in [0.5,0.75) at depth 1 -> u = left sibling
    hq3 = ir.HardQuery(
        trees=(trees[0],),
        x=(0.7,),
        z=(0.95,),
        y=0.5,
        nodes=(Node(0, 0),),
    )
    sub3 = ir.subproblem(hq3, (1,))
    assert sub3.defined
    assert sub3.nodes == (Node(1, 0),)
    assert sub3.region.lo == (0.0, NEG_INF) and sub3.region.hi == (0.5, 0.5)
    with pytest.raises(ValueError):
        ir.subproblem(hq3, (0,))


def test_top_box():
    tree = ir.build_dyadic_tree(0.0, 1.0, 3)
    coords = np.array([[0.1, yy] for yy in (0.05, 0.15, 0.25, 0.35, 0.45)])
    pts = ir.WeightedPointSet(coords, np.arange(5), np.ones(5))
    hq = ir.HardQuery(trees=(tree,), x=(0.7,), z=(0.95,), y=0.5, nodes=(Node(0, 0),))
    sub = ir.subproblem(hq, (1,))
    assert sub.defined and sub.nodes == (Node(1, 0),)
    box, chosen = ir.top_box(pts, sub, 1)
    assert box.lo[-1] == pytest.approx(0.45)
    assert chosen.tolist() == [4]
    box2, chosen2 = ir.top_box(pts, sub, 2)
    assert box2.lo[-1] == pytest.approx(0.35)
    assert sorted(chosen2.tolist()) == [3, 4]
    assert ir.top_box(pts, sub, 6) is None


def test_extension():
    tree = ir.build_dyadic_tree(0.0, 1.0, 3)
    hq = ir.HardQuery(trees=(tree,), x=(0.7,), z=(0.95,), y=0.5, nodes=(Node(0, 0),))
    sub = ir.subproblem(hq, (1,))  # defining node [0, 0.5]
    wide = ir.extension(_sum_box(0.0, 0.6, 0.3), sub)
    assert wide.lo[0] == 0.0 and wide.hi[0] == 0.6  # already spans r(u)
    inner = ir.extension(_sum_box(0.2, 0.3, 0.3), sub)
    assert inner.lo[0] == 0.0 and inner.hi[0] == 0.5  # widened to r(u)
    assert inner.hi[1] == 0.3  # Y untouched
    with pytest.raises(ir.IneligibleSum):
        ir.extension(_sum_box(0.8, 0.9, 0.3), sub)


def test_extension_volume_bound_inside_top_box():
    tree = ir.build_dyadic_tree(0.0, 1.0, 3)
    pts = ir.hammersley_wd(32, 2)
    hq = ir.HardQuery(trees=(tree,), x=(0.7,), z=(0.95,), y=0.9, nodes=(Node(0, 0),))
    sub = ir.subproblem(hq, (1,))
    out = ir.top_box(pts, sub, 4)
    assert out is not None
    tbox, _ = out
    beta = tbox.hi[-1] - tbox.lo[-1]
    ext = ir.extension(_sum_box(0.1, 0.2, 0.85), sub)
    inter_vol = max(0.0, min(ext.hi[0], tbox.hi[0]) - max(ext.lo[0], tbox.lo[0])) * max(
        0.0, min(ext.hi[1], tbox.hi[1]) - tbox.lo[1]
    )
    assert inter_vol <= beta * (tbox.hi[0] - tbox.lo[0]) + 1e-12


def _hand_eligibility_instance():
    tree = ir.build_dyadic_tree(0.0, 1.0, 4)
    hq = ir.HardQuery(trees=(tree,), x=(0.7,), z=(0.8,), y=0.9, nodes=(Node(1, 1),))
    sub = ir.subproblem(hq, (2,))  # w at depth 3 over x=0.7 is (3,5); u=(3,4)
    assert sub.defined and sub.nodes == (Node(3, 4),)
    mk = lambda lo, hi, y: Box((lo, NEG_INF), (hi, y))
    boxes = [
        mk(0.30, 0.60, 0.5),  # placed at root: proper ancestor of v -> ineligible
        mk(0.55, 0.70, 0.5),  # crosses 0.625: placed at (2,2), on path v..parent(u) -> case (i)
        mk(0.51, 0.56, 0.5),  # inside u's slab, crosses 0.53125: subtree of u -> case (ii)
        mk(0.80, 0.95, 0.5),  # subtree of v's sibling -> ineligible
        mk(0.51, 0.62, 0.5),  # crosses 0.5625 at (3,4)=u itself -> case (ii)
        mk(0.66, 0.72, 0.5),  # subtree of (3,5): not on path, not in u -> ineligible
        mk(0.40, 0.70, 0.5),  # crosses 0.5 -> placed at (1,?) wait: crosses 0.5 at root cut? 0.5 in (0.4,0.7) -> root -> ineligible
        mk(0.52, 0.58, 0.95),  # path-adjacent placement, high top: placement decides, not y
    ]
    placed = ir.place_sums(boxes, (tree,))
    return placed, hq, sub


def test_eligible_sums_hand_case():
    placed, hq, sub = _hand_eligibility_instance()
    got = set(ir.eligible_sums(placed, hq, sub).tolist())
    # manual case analysis over the placements above
    assert got == {1, 2, 4, 7}


def test_eligible_sums_partial_mode():
    placed, hq, sub = _hand_eligibility_instance()
    got = set(ir.eligible_sums(placed, hq, sub, t=1).tolist())
    # strict case (i) only, and the sum must stay inside [x', x] = [0.5, 0.7]
    # sum 1 spans [0.55, 0.70] inside the query and on the path
    assert got == {1}
    # sums placed in u's subtree are excluded in partial mode (different class)
    assert 2 not in got and 4 not in got


def test_eligible_sums_partial_mode_exclusions():
    """Partial mode drops an on-path sum that sticks out of the query and
    one that falls short of the subproblem slab; full mode keeps both."""
    tree = ir.build_dyadic_tree(0.0, 1.0, 5)
    hq = ir.HardQuery(trees=(tree,), x=(0.97,), z=(0.99,), y=0.9, nodes=(Node(1, 1),))
    sub = ir.subproblem(hq, (3,))
    assert sub.defined and sub.nodes == (Node(4, 14),)  # u = [0.875, 0.9375]; path (1,1), (2,3), (3,7)
    boxes = [
        Box((0.7, NEG_INF), (0.9, 0.5)),  # inside [x', x] = [0.5, 0.97], reaches u's slab
        Box((0.8, NEG_INF), (0.98, 0.5)),  # hi above x: sticks out of the query
        Box((0.6, NEG_INF), (0.8, 0.5)),  # hi below a(u) = 0.875: cannot reach the slab
    ]
    placed = ir.place_sums(boxes, (tree,))
    assert [ps.nodes for ps in placed] == [(Node(1, 1),), (Node(2, 3),), (Node(1, 1),)]  # all on the path
    assert ir.eligible_sums(placed, hq, sub, t=1).tolist() == [0]
    assert ir.eligible_sums(placed, hq, sub).tolist() == [0, 1, 2]


def test_eligible_sums_undefined_subproblem_empty():
    placed, hq, _ = _hand_eligibility_instance()
    bad = ir.subproblem(hq, (9,))
    assert not bad.defined
    assert ir.eligible_sums(placed, hq, bad).size == 0


def test_lambda_points():
    assert ir.lambda_points(0.01, 16, (1,), 1024, 2048) >= 1
    assert ir.lambda_points(1.0, 16, (1,), 4096, 1) == round(16 * 4096)


def test_min_cover_examples():
    targets = range(10)
    assert ir.min_cover(targets, [set(range(10))]) == 1
    assert ir.min_cover(targets, []) == 10
    assert ir.min_cover(range(4), [{0, 1}, {2, 3}, {0, 1, 2, 3}]) == 1


def test_min_cover_matches_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(60):
        t = int(rng.integers(1, 13))
        targets = list(range(t))
        sums = [set(rng.choice(t, size=rng.integers(1, t + 1), replace=False).tolist()) for _ in range(int(rng.integers(0, 9)))]
        assert ir.min_cover(targets, sums) == ir.min_cover_enumerate(targets, sums)


def test_min_cover_guards():
    with pytest.raises(ir.TooLarge):
        ir.min_cover(range(21), [])
    with pytest.raises(ir.TooLarge):
        ir.min_cover(range(5), [{1}] * 21)


def test_count_defined_subproblems_matches_loop():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 6), ir.build_dyadic_tree(0.0, 1.0, 6)]
    rng = np.random.default_rng(33)
    for _ in range(50):
        hq = ir.sample_hard_query(rng, trees)
        jmax = 3
        want = 0
        import itertools

        for jv in itertools.product(range(1, jmax + 1), repeat=2):
            if ir.subproblem(hq, jv).defined:
                want += 1
        assert ir.count_defined_subproblems(hq, jmax) == want
