import hashlib
import itertools

import numpy as np
import pytest

import idemrange as ir
from idemrange import NEG_INF, Box
from idemrange.dyadic import Node
from idemrange import idsstruct as I


def test_config():
    cfg = ir.IdsConfig.for_input(4096, 2, 1)
    assert cfg.h == 12 and cfg.N == 341
    with pytest.raises(ValueError):
        ir.IdsConfig.for_input(100, 2, 2)


def test_box_of_examples():
    trees = [ir.build_dyadic_tree(0.0, 1.0, 4)]
    # x_1 in [0.5, 0.75), depth 2, orientation R -> left bound 0.25
    box = ir.box_of((0.6, 0.4), (2,), ("R",), trees)
    assert box.lo[0] == 0.25 and box.hi[0] == 0.6
    assert box.lo[1] == NEG_INF and box.hi[1] == 0.4
    # leftmost depth-1 node: no left neighbor
    assert ir.box_of((0.3, 0.4), (1,), ("R",), trees) is None
    # mirrored: rightmost node has no right neighbor
    assert ir.box_of((0.8, 0.4), (1,), ("L",), trees) is None
    box_l = ir.box_of((0.3, 0.4), (2,), ("L",), trees)
    assert box_l.lo[0] == 0.3 and box_l.hi[0] == 0.75


def test_build_reports_and_family_shape():
    pts = ir.uniform_random(256, 2, seed=1)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    assert s.s_plus <= 2 * 256
    assert s.num_boxes <= 2 * 256
    small = ir.build_ids(ir.uniform_random(16, 2, seed=2), 1, ir.ID_SET)
    assert small.config.h == 4 and small.config.N == 4
    assert len(small.family.sets) == 4
    assert small.family.total_points() == 16


def test_build_input_guards():
    pts3 = ir.uniform_random(32, 3, seed=0)
    with pytest.raises(ValueError):
        ir.build_ids(pts3, 3, ir.MAX_REAL)  # k >= d
    with pytest.raises(ValueError):
        ir.build_ids(ir.uniform_random(2, 2, seed=0), 1, ir.MAX_REAL)


def _check_blocks_against_scan(pts, s):
    """Every block's row range holds its own boxes, in dim-0 order, and each
    box's count and id-set (one row, then the block's rows at once) match
    the scan."""
    sums = s.sums
    checked = 0
    for (orient, index), (start, stop) in s.blocks.items():
        assert start < stop and np.all(np.diff(sums.coords[start:stop, 0]) >= 0)
        rows = np.arange(start, stop)
        for r, batched in zip(rows.tolist(), sums.values[rows]):
            box = Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r]))
            want = ir.scan_ids(pts, box)
            assert sums.counts[r] == want.size
            if want.size:
                assert np.array_equal(sums.values[r], want) and np.array_equal(batched, want)
            else:
                assert sums.values[r] is None and batched is None
            checked += 1
    assert checked == s.num_boxes


def test_stored_values_match_scan_oracle():
    pts = ir.uniform_random(64, 2, seed=7)
    _check_blocks_against_scan(pts, ir.build_ids(pts, 1, ir.ID_SET))


def test_stored_values_match_scan_oracle_d3k2():
    pts = ir.uniform_random(64, 3, seed=8)
    _check_blocks_against_scan(pts, ir.build_ids(pts, 2, ir.ID_SET))


@pytest.mark.parametrize("name", ["max", "or", "idset"])
@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_stored_values_match_scan_value(name, d, k):
    sg = ir.semigroup_by_name(name)
    pts = ir.uniform_random(64, d, seed=7 + d)
    weights = np.random.default_rng(d).integers(0, 2**63, 64, dtype=np.uint64)
    sums = ir.build_ids(pts, k, sg, weights=weights).sums
    for r in range(len(sums.counts)):
        box = Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r]))
        got, want = sums.values[r], ir.scan_value(pts, box, sg, weights)
        assert sums.counts[r] == np.count_nonzero(ir.scan_mask(pts.coords, box))
        if want is None:
            assert got is None
        else:
            assert sg.equal(got, want) and type(got) is type(want)
            if name == "idset":
                assert got.dtype == np.int64 and np.array_equal(got, want)


def test_decompose_examples():
    pts = ir.uniform_random(256, 2, seed=1)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    pieces, so = ir.decompose_query(s, Box((0.3, NEG_INF), (0.8, 0.9)))
    assert not so and len(pieces) == 2
    by_orient = {p.orientation: p for p in pieces}
    assert by_orient[("L",)].hi[0] == 0.5 and by_orient[("R",)].lo[0] == 0.5
    # interval strictly inside a leaf slab
    w = 1.0 / (1 << s.config.h)
    _, so = ir.decompose_query(s, Box((10.2 * w, NEG_INF), (10.8 * w, 0.9)))
    assert so


def test_decompose_k2_four_pieces():
    pts = ir.uniform_random(128, 3, seed=3)
    s = ir.build_ids(pts, 2, ir.ID_SET)
    pieces, so = ir.decompose_query(s, Box((0.2, 0.1, NEG_INF), (0.9, 0.8, 0.7)))
    assert not so and len(pieces) == 4
    assert {p.orientation for p in pieces} == {("L", "L"), ("L", "R"), ("R", "L"), ("R", "R")}


def test_malformed_queries_rejected():
    pts = ir.uniform_random(64, 2, seed=1)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    with pytest.raises(ir.MalformedQuery):
        ir.query(s, Box((NEG_INF, NEG_INF), (0.5, 0.5)))  # dim 0 must be two-sided
    with pytest.raises(ir.MalformedQuery):
        ir.query(s, Box((0.1, 0.2), (0.5, 0.5)))  # dim 1 must be one-sided
    with pytest.raises(ir.MalformedQuery):
        ir.query(s, Box((0.1, NEG_INF, NEG_INF), (0.5, 0.5, 0.5)))


def _answer_piece(s, piece):
    """A piece answered alone: its cover pass on a state whose containment
    box is the piece itself (query() uses the whole query box instead,
    letting sums straddle the split)."""
    state = I._CoverState(s.sums, piece.lo, piece.hi, None)
    I._cover_pieces(s, [piece], state)
    return I._finish(s, state)


def test_anchored_piece_empty_cover_only_singletons():
    pts = ir.uniform_random(256, 2, seed=5)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    w = 1.0 / (1 << s.config.h)
    # right piece corner lands on the leftmost leaf of the right subtree
    q = Box((0.49, NEG_INF), (0.5 + 0.5 * w, 0.9))
    pieces, so = ir.decompose_query(s, q)
    assert not so
    right = [p for p in pieces if p.orientation == ("R",)][0]
    ans = _answer_piece(s, right)
    assert ans.sums_used == 0
    assert np.array_equal(ans.value, ir.scan_ids(pts, Box(right.lo, right.hi)))


def test_answer_anchored_matches_piece_scan():
    pts = ir.uniform_random(256, 2, seed=6)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    rng = np.random.default_rng(4)
    for _ in range(60):
        a, b = sorted(rng.random(2).tolist())
        q = Box((a, NEG_INF), (b, float(rng.random())))
        pieces, so = ir.decompose_query(s, q)
        if so:
            continue
        for piece in pieces:
            ans = _answer_piece(s, piece)
            got = ans.value if ans.value is not None else np.empty(0, np.int64)
            want = ir.scan_ids(pts, Box(piece.lo, piece.hi))
            assert np.array_equal(got, want)


def test_query_full_range_and_empty():
    pts = ir.uniform_random(128, 2, seed=9)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    full = ir.query(s, Box((0.0, NEG_INF), (1.0, 1.0)))
    assert np.array_equal(full.value, np.arange(128))
    empty = ir.query(s, Box((0.4, NEG_INF), (0.400000001, -0.5)))
    assert empty.value is None and empty.total_cost == 0


def test_query_oracle_uniform_and_hard():
    pts = ir.hammersley_wd(256, 2)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    rng = np.random.default_rng(11)
    for _ in range(150):
        a, b = sorted(rng.random(2).tolist())
        q = Box((a, NEG_INF), (b, float(rng.random())))
        ans = ir.query(s, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        # cost is zero exactly when the range is empty
        assert (ans.total_cost == 0) == (got.size == 0)
    for _ in range(150):
        q = ir.sample_hard_query(rng, s.trees).box
        ans = ir.query(s, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))


def test_query_oracle_d3_both_k():
    pts = ir.uniform_random(256, 3, seed=13)
    rng = np.random.default_rng(14)
    for k in (1, 2):
        s = ir.build_ids(pts, k, ir.ID_SET)
        for _ in range(60):
            lo, hi = [], []
            for _ in range(k):
                a, b = sorted(rng.random(2).tolist())
                lo.append(a)
                hi.append(b)
            for _ in range(3 - k):
                lo.append(NEG_INF)
                hi.append(float(rng.random()))
            q = Box(tuple(lo), tuple(hi))
            ans = ir.query(s, q)
            got = ans.value if ans.value is not None else np.empty(0, np.int64)
            assert np.array_equal(got, ir.scan_ids(pts, q))


def test_audit_boxes_inside_query():
    pts = ir.uniform_random(512, 2, seed=15)
    s = ir.build_ids(pts, 1, ir.MAX_REAL)
    rng = np.random.default_rng(16)
    for _ in range(100):
        a, b = sorted(rng.random(2).tolist())
        q = Box((a, NEG_INF), (b, float(rng.random())))
        ans, audit = ir.query(s, q, return_audit=True)
        assert ans.sums_used == len(audit)
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))


def test_max_semigroup_values_match_oracle():
    rng = np.random.default_rng(17)
    pts = ir.uniform_random(256, 2, seed=18).with_weights(rng.random(256))
    s = ir.build_ids(pts, 1, ir.MAX_REAL)
    for _ in range(100):
        a, b = sorted(rng.random(2).tolist())
        q = Box((a, NEG_INF), (b, float(rng.random())))
        ans = ir.query(s, q)
        want = ir.scan_value(pts, q, ir.MAX_REAL)
        if want is None:
            assert ans.value is None
        else:
            assert ans.value == pytest.approx(want)


def test_singleton_only_cost_bound():
    pts = ir.hammersley_wd(64, 2)
    eps = ir.check_well_distributed(pts, eps=1e-9, mode="exact").epsilon_observed
    s = ir.build_ids(pts, 1, ir.ID_SET)
    w = 1.0 / (1 << s.config.h)
    q = Box((3.1 * w, NEG_INF), (3.9 * w, 0.8))
    pieces, so = ir.decompose_query(s, q)
    assert so
    ans = ir.query(s, q)
    vol = (q.hi[0] - q.lo[0]) * q.hi[1]
    assert ans.sums_used == 0
    assert ans.singletons_used <= int(np.ceil(64 * vol / eps)) + 1


def test_dominance_semantics_shared_with_dominance_module():
    # the per-tuple cover step and the dominance structure use the same
    # maxima/coverage helper; spot-check the reduction coincides on a shared
    # instance: candidates as samples, projected targets as input
    rng = np.random.default_rng(19)
    cand = rng.random((12, 1))
    targets = rng.random((30, 1))
    m_idx, covered, used = ir.dominance_cover(cand, targets)
    pts = ir.WeightedPointSet(targets, np.arange(30), np.ones(30))
    ds = ir.build_dominance(pts, 12, ir.ID_SET, samples=cand)
    ans = ir.dominance_query(ds, (1.0,))
    assert ans.singletons_used == int((~covered).sum())


def test_usable_sums_helper():
    pts = ir.uniform_random(128, 2, seed=21)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    q = Box((0.1, NEG_INF), (0.9, 0.9))
    sums = ir.idsstruct.usable_sums(s, q)
    for ids, box, count in sums:
        assert count >= 2 and count == len(ids)
        assert all(bl >= ql for bl, ql in zip(box.lo, q.lo))
        assert all(bh <= qh for bh, qh in zip(box.hi, q.hi))


def _uniform_queries(rng, d, k, count):
    out = []
    for _ in range(count):
        lo, hi = [], []
        for _ in range(k):
            a, b = sorted(rng.random(2).tolist())
            lo.append(a)
            hi.append(b)
        for _ in range(d - k):
            lo.append(NEG_INF)
            hi.append(float(rng.random()))
        out.append(Box(tuple(lo), tuple(hi)))
    return out


def test_nan_and_infinite_bounds():
    pts = ir.uniform_random(64, 2, seed=1)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    nan, inf = float("nan"), float("inf")
    for q in (
        Box((nan, NEG_INF), (0.5, 0.5)),
        Box((0.1, NEG_INF), (nan, 0.5)),
        Box((0.1, NEG_INF), (0.5, nan)),
        Box((0.1, nan), (0.5, 0.5)),
        Box((-inf, NEG_INF), (0.5, 0.5)),  # two-sided dim without a lower bound
    ):
        with pytest.raises(ir.MalformedQuery):
            ir.query(s, q)
    for q in (
        Box((0.2, NEG_INF), (inf, inf)),
        Box((inf, NEG_INF), (inf, 0.5)),
        Box((0.2, NEG_INF), (0.8, -inf)),
        Box((0.2, NEG_INF), (0.2000001, -inf)),  # singleton-only path
    ):
        ans = ir.query(s, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))


def _greedy_reference(pts, lo, hi):
    """Dense greedy: recount every box's uncovered points at every pick."""
    inside = np.all((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :]), axis=2)
    alive = np.ones(len(pts), dtype=bool)
    picks, ties = [], 0
    while len(lo):
        gains = (inside & alive[None, :]).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] < 2:
            break
        ties += int(np.sum(gains == gains[best])) - 1
        picks.append(best)
        alive &= ~inside[best]
    return picks, alive, ties


@pytest.mark.parametrize("m", [2, 5, 63, 64, 65, 129, 200])
@pytest.mark.parametrize("d", [2, 3])
def test_greedy_cover_matches_dense_reference(m, d):
    rng = np.random.default_rng(1000 * d + m)
    grid = 8  # coarse lattice: repeated boxes and points give tied gains
    pts = rng.integers(0, grid, (m, d)) / grid
    rows = 150
    lo = rng.integers(0, grid, (rows, d)) / grid
    hi = lo + rng.integers(0, 2, (rows, d)) / grid
    lo[rng.random(rows) < 0.05, d - 1] = NEG_INF
    lo = np.concatenate([lo, lo[:20]])  # exact duplicates tie by construction
    hi = np.concatenate([hi, hi[:20]])
    want_picks, want_alive, ties = _greedy_reference(pts, lo, hi)
    if m >= 63:
        assert len(want_picks) >= 5 and ties > 0
    for chunk_cells in (I._CHUNK_CELLS, 7 * m, 1):  # one chunk, 7-row chunks, 1-row chunks
        picks, alive = I._greedy_cover(pts, lo, hi, chunk_cells=chunk_cells)
        assert picks == want_picks
        assert np.array_equal(alive, want_alive)


def _scan_rows(sums, qlo, qhi, min_count, orient=None, spans=None, reach=None):
    """Reference ``_SumIndex.inside``: every row tested in block order."""
    keep = []
    for (o, _), (blk_start, blk_stop) in sums.blocks.items():
        for r in range(blk_start, blk_stop):
            lo, hi = sums.box_lo[r], sums.box_hi[r]
            ok = o == (orient or o) and sums.counts[r] >= min_count and np.all(lo >= qlo) and np.all(hi <= qhi)
            if spans is not None:
                k = len(spans[0])
                ok = ok and np.all(lo[:k] <= spans[0]) and np.all(hi[:k] >= spans[1])
            if reach is not None:
                ok = ok and np.all(hi >= reach[0]) and np.all(lo <= reach[1])
            if ok:
                keep.append(r)
    return keep


def test_sum_index_matches_block_scan():
    pts = ir.uniform_random(256, 3, seed=22)
    s = ir.build_ids(pts, 2, ir.ID_SET)
    sums = s.sums
    rng = np.random.default_rng(23)
    found = 0
    for q in _uniform_queries(rng, 3, 2, 30):
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        want = []
        for start, stop in s.blocks.values():
            blk = slice(start, stop)
            ok = (sums.counts[blk] >= 2) & np.all(sums.box_lo[blk] >= qlo, axis=1) & np.all(sums.box_hi[blk] <= qhi, axis=1)
            want.extend(start + np.nonzero(ok)[0])
        assert sums.inside(qlo, qhi, 2).tolist() == want
        low = np.maximum(qlo, 0.0)
        reach = (low + 0.2 * (qhi - low), qhi - 0.3 * (qhi - low))
        assert sums.inside(qlo, qhi, 2, reach=reach).tolist() == _scan_rows(sums, qlo, qhi, 2, reach=reach)
        mid = (qlo[:2] + qhi[:2]) / 2
        for a, b in [
            (np.array([0.3, 0.5]), np.array([0.35, 0.55])),
            (mid, mid),  # boxes spanning the query's centre
        ]:
            for orient in itertools.product("RL", repeat=2):
                rows = sums.inside(qlo, qhi, 1, orient=orient, spans=(a, b))
                assert rows.tolist() == _scan_rows(sums, qlo, qhi, 1, orient, (a, b))
                found += rows.size
    assert found > 15


def test_sum_index_edge_layouts():
    """A hand-built index: no R rows, rows tied on x0 within and across
    blocks, and dim-0 windows that hold no key."""
    rng = np.random.default_rng(25)
    pts = rng.integers(0, 8, (64, 2)) / 8
    parts = []
    for index in (1, 2, 3):
        coords = pts[rng.choice(64, 12, replace=False)]
        coords = coords[np.argsort(coords[:, 0], kind="stable")]
        lo, hi = coords.copy(), coords.copy()
        hi[:, 0] += 1.0 / (1 << index)
        lo[:, 1] = NEG_INF
        parts.append((("L",), (index,), coords, lo, hi))
    sums = I._SumIndex(1, parts, pts, np.arange(64), ir.ID_SET)
    assert sums.by_orient[("R",)][0].size == 0
    x0 = sums.coords[:, 0]
    assert np.unique(x0).size < x0.size
    assert sums.inside(np.array([0.1, NEG_INF]), np.array([1.0, 1.0]), 1, orient=("R",)).size == 0
    queries = [
        (np.array([0.3, NEG_INF]), np.array([1.0, 0.8])),
        (np.array([0.26, NEG_INF]), np.array([0.37, 1.0])),  # no key in [0.26, 0.37]: empty window
        (np.array([-1.0, NEG_INF]), np.array([2.0, 2.0])),  # everything
        (np.array([0.5, NEG_INF]), np.array([0.75, 1.0])),  # starts on a tied key value
    ]
    queries += [(np.array([a, NEG_INF]), np.array([a + w, 1.0])) for a, w in rng.random((20, 2)).tolist()]
    for qlo, qhi in queries:
        for min_count in (0, 1, 2):
            got = sums.inside(qlo, qhi, min_count)
            assert got.tolist() == _scan_rows(sums, qlo, qhi, min_count)
            assert sums.inside(qlo, qhi, min_count, orient=("L",)).tolist() == got.tolist()
    assert sums.inside(*queries[1], 0, orient=("L",)).size == 0
    assert sums.inside(*queries[2], 0).tolist() == list(range(len(x0)))


# Per-query (sums_used, singletons_used) of the first 40 uniform queries;
# lookup changes must leave every one of them unchanged.
PINNED_COSTS = {
    (2, 1): [
        (18, 17), (1, 7), (4, 13), (10, 9), (8, 20), (5, 9), (15, 14), (6, 3), (12, 16), (11, 13),
        (4, 15), (14, 5), (5, 10), (7, 17), (10, 8), (13, 13), (6, 3), (11, 24), (6, 18), (5, 12),
        (10, 7), (5, 13), (11, 20), (7, 22), (8, 9), (4, 9), (10, 10), (12, 20), (8, 16), (11, 25),
        (5, 10), (10, 8), (8, 13), (5, 11), (0, 4), (5, 15), (9, 19), (10, 17), (14, 16), (10, 19),
    ],
    (3, 2): [
        (0, 3), (0, 0), (0, 9), (0, 3), (7, 26), (0, 12), (4, 49), (1, 15), (1, 30), (1, 41),
        (3, 50), (2, 21), (1, 6), (0, 0), (7, 27), (1, 11), (0, 7), (7, 43), (0, 26), (0, 2),
        (1, 26), (0, 2), (0, 7), (0, 3), (1, 20), (0, 3), (0, 4), (13, 67), (0, 3), (1, 13),
        (0, 0), (10, 45), (0, 0), (4, 43), (5, 25), (0, 2), (1, 19), (0, 0), (0, 9), (2, 17),
    ],
}


@pytest.mark.parametrize("d,k,n,seed", [(2, 1, 1024, 31), (3, 2, 512, 32)])
def test_query_costs_pinned(d, k, n, seed):
    pts = ir.uniform_random(n, d, seed=seed)
    s = ir.build_ids(pts, k, ir.ID_SET)
    rng = np.random.default_rng(seed)
    costs = []
    for q in _uniform_queries(rng, d, k, 40):
        ans, audit = ir.query(s, q, return_audit=True)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        assert len(audit) == ans.sums_used
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))
        costs.append((ans.sums_used, ans.singletons_used))
    assert costs == PINNED_COSTS[(d, k)]


# Per-query (sums_used, singletons_used, digest of the ordered audit boxes)
# of the midpoint cases below.  A point on a split midpoint belongs to every
# piece whose closed side holds it, and its cost is counted in each of them.
PINNED_MIDPOINT = {
    (2, 1): [
        (7, 7, 'b0f6a92d85fe'), (8, 6, '20bcddc031f6'), (4, 3, '7ee1526318a5'), (2, 3, 'f205e4b193ef'),
        (9, 6, 'c1161be3fbe9'), (0, 2, '4f53cda18c2b'), (6, 14, '70ae368f45c3'), (7, 8, '6c71e0f4a146'),
        (7, 7, '317fdabaf55e'), (8, 13, '0148d7fec90b'), (8, 7, 'e499e4f570d4'), (3, 13, '7ef4676f06ce'),
        (7, 8, '4f29b363fb59'), (7, 12, '6967eb45d222'), (8, 15, '6f76e0c92006'), (6, 6, '1b0e5a93bdb3'),
        (6, 5, 'c43a85eb234f'), (8, 15, '7eb3d72ce563'), (14, 17, '5297c4ddd90b'), (3, 3, '92c54e5667b6'),
        (6, 5, '3915c2748f59'), (11, 6, 'ba2407b2a1ed'), (4, 14, 'fb6dc72eb835'), (9, 9, '573e609c586f'),
    ],
    (3, 2): [
        (4, 43, 'a7433ca33de3'), (2, 13, 'ce8cfe1f24c4'), (3, 39, 'ee63042af322'), (3, 14, '6f586e121988'),
        (0, 20, '4f53cda18c2b'), (21, 78, '9cf7a23ea1b0'), (1, 50, 'ef1e9d1b6d56'), (4, 36, '6bbd302de57a'),
        (1, 52, '31baa0055486'), (20, 63, '0557c6113b05'), (1, 37, '40f4f9fd6903'), (4, 23, '2a3d579bf6c9'),
        (15, 61, 'ad4062a069d8'), (1, 28, '37cb68bc09e1'), (9, 63, '2710dc6c7120'), (18, 52, '3324bd0806d7'),
        (0, 2, '4f53cda18c2b'), (0, 30, '4f53cda18c2b'), (7, 21, '4072dc35c890'), (4, 30, 'e5af0645d138'),
        (0, 24, '4f53cda18c2b'), (1, 34, '34b8b3b8e712'), (3, 35, '14a217804f0a'), (2, 56, 'e9b84c799db5'),
    ],
}


def _midpoint_case(d, k, seed):
    """512 points, about half of them with their two-sided coordinates on
    multiples of 1/16; queries at least 0.2 wide in each two-sided dim, so
    each split midpoint is a multiple of 1/8 and many points lie on it."""
    rng = np.random.default_rng(seed)
    n = 512
    coords = rng.random((n, d))
    on = rng.random(n) < 0.5
    coords[on, :k] = rng.integers(1, 16, (int(on.sum()), k)) / 16
    pts = ir.WeightedPointSet(coords, np.arange(n), np.ones(n))
    queries = []
    while len(queries) < 24:
        lo, hi = [], []
        for _ in range(k):
            a, b = sorted(rng.random(2).tolist())
            if b - a < 0.2:
                break
            lo.append(a)
            hi.append(b)
        else:
            for _ in range(d - k):
                lo.append(NEG_INF)
                hi.append(float(rng.random()))
            queries.append(Box(tuple(lo), tuple(hi)))
    return pts, queries


@pytest.mark.parametrize("d,k,seed", [(2, 1, 61), (3, 2, 62)], ids=["2-1", "3-2"])
def test_points_on_split_midpoints_keep_costs(d, k, seed):
    pts, queries = _midpoint_case(d, k, seed)
    s = ir.build_ids(pts, k, ir.ID_SET)
    got_pins, on_every_mid = [], 0
    for q in queries:
        ans, audit = ir.query(s, q, return_audit=True)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        assert len(audit) == ans.sums_used
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))
        digest = hashlib.sha256(repr([(bx.lo, bx.hi) for bx in audit]).encode()).hexdigest()[:12]
        got_pins.append((ans.sums_used, ans.singletons_used, digest))
        pieces, _ = ir.decompose_query(s, q)
        mids = [next(p.lo[i] for p in pieces if p.orientation[i] == "R") for i in range(k)]
        on_every_mid += int(np.sum(ir.scan_mask(pts.coords, q) & np.all(pts.coords[:, :k] == mids, axis=1)))
    assert on_every_mid > 0  # at k = 2 these points belong to all 4 pieces
    assert got_pins == PINNED_MIDPOINT[(d, k)]


def _greedy_case(name):
    """Hand-built (pts, box_lo, box_hi) for the dim-0 window edge cases."""
    pts = np.array([[0.1, 0.1], [0.3, 0.5], [0.3, 0.2], [0.3, 0.9], [0.6, 0.4], [0.8, 0.8]])
    boxes = {
        # dim-0 window empty (left of, between and right of the points), then one holding one point
        "empty-and-single": [((0.0, 0.0), (0.05, 1.0)), ((0.4, 0.0), (0.5, 1.0)), ((0.9, 0.0), (1.0, 1.0)),
                             ((0.55, 0.0), (0.65, 1.0)), ((0.0, 0.0), (1.0, 1.0))],
        # leftovers tied on x0: windows of several points, only some inside on dim 1
        "tied-x0": [((0.3, 0.0), (0.3, 0.3)), ((0.3, 0.15), (0.3, 0.95)), ((0.25, 0.4), (0.35, 1.0)),
                    ((0.3, 0.2), (0.3, 0.5)), ((0.0, 0.0), (0.3, 0.5))],
        # -inf lo on dim 0: the window starts at the first point
        "neg-inf-x0": [((NEG_INF, 0.0), (0.3, 0.5)), ((NEG_INF, NEG_INF), (0.1, 1.0)), ((NEG_INF, 0.3), (0.8, 0.8)),
                       ((NEG_INF, NEG_INF), (1.0, 1.0))],
        # every window holds at most one point inside the box: nothing is picked
        "no-pair": [((0.1, 0.0), (0.3, 0.15)), ((0.3, 0.6), (0.8, 0.85)), ((0.0, 0.95), (1.0, 1.0)),
                    ((0.55, 0.3), (0.6, 0.45))],
        # two or more points in each single dimension, at most one inside the box: nothing is picked
        "two-per-dim": [((0.0, 0.75), (0.35, 1.0)), ((0.55, 0.05), (0.85, 0.45)), ((0.05, 0.3), (0.35, 0.85))],
        # exactly two points inside, both on the box's faces: the box is picked
        "exactly-two": [((0.55, 0.05), (0.85, 0.45)), ((0.1, 0.1), (0.3, 0.2)), ((0.6, 0.4), (0.8, 0.8))],
    }[name]
    lo, hi = (np.array(side, dtype=np.float64) for side in zip(*boxes))
    return pts, lo, hi


@pytest.mark.parametrize("name", ["empty-and-single", "tied-x0", "neg-inf-x0", "no-pair", "two-per-dim", "exactly-two"])
def test_greedy_cover_window_edges(name):
    pts, lo, hi = _greedy_case(name)
    want_picks, want_alive, _ = _greedy_reference(pts, lo, hi)
    for chunk_cells in (I._CHUNK_CELLS, 3, 1):
        picks, alive = I._greedy_cover(pts, lo, hi, chunk_cells=chunk_cells)
        assert picks == want_picks
        assert np.array_equal(alive, want_alive)
    per_dim = ((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :])).sum(axis=1)
    if name == "two-per-dim":
        assert (per_dim >= 2).all()
    if name in ("no-pair", "two-per-dim"):
        assert picks == [] and alive.all()
    elif name == "exactly-two":
        assert picks == [1, 2] and alive.sum() == len(pts) - 4
    else:
        assert picks


@pytest.mark.parametrize("chunk_cells", [I._CHUNK_CELLS, 5, 1])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
def test_inside_bits_matches_dense_containment(m, chunk_cells):
    rng = np.random.default_rng(41 + m)
    grid = 6  # coarse lattice: ties, and points on box faces
    pts = rng.integers(0, grid, (m, 3)) / grid
    pts[rng.random((m, 3)) < 0.05] = np.inf
    pts[rng.random((m, 3)) < 0.05] = -np.inf
    lo = rng.integers(-1, grid, (60, 3)) / grid
    hi = lo + rng.integers(0, 3, (60, 3)) / grid
    lo[::7, 0] = NEG_INF
    lo[::5, 2] = NEG_INF
    hi[::11] = np.inf
    dense = np.all((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :]), axis=2)
    bits = I._inside_bits(pts, lo, hi, chunk_cells)
    assert bits.dtype == np.uint64 and bits.shape == (60, -(-m // 64))
    unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little").astype(bool)
    assert np.array_equal(unpacked[:, :m], dense)
    assert not unpacked[:, m:].any()  # padding bits are never set
    assert np.array_equal(np.bitwise_count(bits).sum(axis=1), dense.sum(axis=1))
    assert I._inside_bits(pts, lo[:0], hi[:0], chunk_cells).shape == (0, bits.shape[1])


def test_greedy_prefilter_keeps_boxes_with_two_per_dimension(monkeypatch):
    """Boxes reach the containment test iff they hold two or more points in
    every single dimension (closed on both faces)."""
    rng = np.random.default_rng(43)
    pts = rng.random((30, 2))
    pts[:10] = np.round(pts[:10] * 4) / 4  # ties
    lo = rng.random((300, 2)) * 1.2 - 0.1
    hi = lo + rng.random((300, 2)) * 0.3
    lo[:100], hi[100:200] = pts[rng.integers(0, 30, 100)], pts[rng.integers(0, 30, 100)]  # faces on points
    hi = np.maximum(lo, hi)
    lo[::9, 1] = NEG_INF
    per_dim = ((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :])).sum(axis=1)
    want = (per_dim >= 2).all(axis=1)
    assert 0 < want.sum() and ((per_dim >= 1).all(axis=1) & ~want).sum() > 10
    seen = []
    real = I._inside_bits
    monkeypatch.setattr(I, "_inside_bits", lambda p, bl, bh, c: seen.append((bl, bh)) or real(p, bl, bh, c))
    I._greedy_cover(pts, lo, hi)
    (got_lo, got_hi), = seen
    assert np.array_equal(got_lo, lo[want]) and np.array_equal(got_hi, hi[want])


def test_cover_state_take_batch():
    pts = ir.uniform_random(256, 2, seed=24)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    sums = s.sums
    q = Box((0.1, NEG_INF), (0.9, 0.8))
    rows = sums.inside(np.asarray(q.lo), np.asarray(q.hi), 1)[:5]
    assert rows.size == 5
    audit = []
    state = I._CoverState(sums, q.lo, q.hi, audit)
    state.take(rows[::-1])
    state.take(rows[:0])
    assert state.used == rows[::-1].tolist()
    assert audit == [Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r])) for r in rows[::-1]]
    # no leftovers: the answer folds just the used sums' values, gathered at the end
    ans = I._finish(s, state)
    want = np.unique(np.concatenate([ir.scan_ids(pts, b) for b in audit]))
    assert (ans.sums_used, ans.singletons_used) == (5, 0) and np.array_equal(ans.value, want)
    escaping = np.nonzero(np.any(sums.box_hi > q.hi, axis=1))[0][:1]
    with pytest.raises(AssertionError, match="used sum escapes the query box"):
        state.take(np.concatenate((rows[:2], escaping)))


def _off_cube_points(rng, n, d, h):
    """n points, 20 outside the unit cube, with tied coordinates and points
    on dyadic boundaries (multiples of 2^-h, 0 and 1 included)."""
    coords = rng.random((n, d))
    coords[:20] = rng.uniform(-1.0, 2.0, (20, d))
    coords[np.arange(20), rng.integers(0, d, 20)] = rng.choice([-0.6, 1.6], 20) + rng.uniform(-0.4, 0.4, 20)
    for j in range(d):
        coords[20:60, j] = rng.choice(coords[60:65, j], 40)
    coords[100:140] = rng.integers(0, (1 << h) + 1, (40, d)) / (1 << h)
    return ir.WeightedPointSet(coords, rng.permutation(n), np.ones(n))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_off_cube_points_match_scan(d, k):
    rng = np.random.default_rng(100 * d + k)
    pts = _off_cube_points(rng, 256, d, 8)
    s = ir.build_ids(pts, k, ir.ID_SET)
    for _ in range(80):
        two_sided = np.sort(rng.uniform(-1.0, 2.0, (k, 2)), axis=1)
        one_sided = rng.uniform(-1.0, 2.0, d - k)
        snap = pts.coords[rng.integers(0, 256, d), np.arange(d)]
        for j in np.nonzero(rng.random(d) < 0.3)[0]:  # bounds exactly on point coordinates
            if j < k:
                two_sided[j, rng.integers(0, 2)] = snap[j]
                two_sided[j].sort()
            else:
                one_sided[j - k] = snap[j]
        lo = two_sided[:, 0].tolist() + [NEG_INF] * (d - k)
        hi = two_sided[:, 1].tolist() + one_sided.tolist()
        q = Box(tuple(lo), tuple(hi))
        ans, audit = ir.query(s, q, return_audit=True)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        assert len(audit) == ans.sums_used
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))


def test_points_outside_unit_cube_are_answered():
    pts = ir.uniform_random(64, 2, seed=5)
    coords = pts.coords.copy()
    coords[:3] = [(1.5, 0.5), (0.5, 1.7), (-0.2, 0.3)]
    pts = ir.WeightedPointSet(coords, pts.ids, pts.weights)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    for q in (
        Box((0.2, NEG_INF), (2.0, 0.9)),
        Box((0.2, NEG_INF), (0.8, 2.0)),
        Box((-0.5, NEG_INF), (0.6, 0.9)),
        Box((1.2, NEG_INF), (1.8, 1.0)),  # no midpoint inside: singleton path
    ):
        ans = ir.query(s, q)
        want = ir.scan_ids(pts, q)
        assert want.size and np.array_equal(ans.value, want)


def test_lower_bound_on_split_midpoint():
    # the L piece is [0.5, 0.5]: its corner sits on the split midpoint
    coords = np.array([(0.5, 0.2), (0.5, 0.4), (0.1, 0.1), (0.9, 0.9), (0.7, 0.3)])
    pts = ir.WeightedPointSet(coords, np.arange(5), np.ones(5))
    s = ir.build_ids(pts, 1, ir.ID_SET)
    q = Box((0.5, NEG_INF), (0.5, 0.5))
    assert np.array_equal(ir.query(s, q).value, ir.scan_ids(pts, q))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_bounds_on_dyadic_midpoints_match_scan(d, k):
    rng = np.random.default_rng(40 + 10 * d + k)
    n = 256
    coords = rng.integers(0, 33, (n, d)) / 32  # many points on dyadic midpoints, tied
    pts = ir.WeightedPointSet(coords, rng.permutation(n), np.ones(n))
    s = ir.build_ids(pts, k, ir.ID_SET)
    for _ in range(150):
        lo, hi = [], []
        for _ in range(k):
            j = int(rng.integers(1, 6))
            a = (2 * int(rng.integers(0, 1 << (j - 1))) + 1) / (1 << j)  # the midpoint of a depth-(j-1) node
            lo.append(a)
            hi.append(min(1.0, a + rng.choice([0.0, rng.random() / (1 << j), rng.random()])))
        lo += [NEG_INF] * (d - k)
        hi += (rng.integers(0, 33, d - k) / 32).tolist()
        q = Box(tuple(lo), tuple(hi))
        ans, audit = ir.query(s, q, return_audit=True)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))


_FAR = (1e19, -1e19, 1e300, -1e300, np.inf, -np.inf)


def test_far_out_point_hand_example():
    # a cast of 1e19 * g to int64 overflows; the point must still be found
    pts = ir.uniform_random(64, 2, seed=3)
    coords = np.vstack((pts.coords, [(1e19, 0.3), (np.inf, 0.5)]))
    pts = ir.WeightedPointSet(coords, np.arange(66), np.ones(66))
    s = ir.build_ids(pts, 1, ir.ID_SET)
    for q in (Box((0.9, NEG_INF), (2e19, 0.9)), Box((0.9, NEG_INF), (np.inf, 0.9))):
        want = ir.scan_ids(pts, q)
        assert 64 in want
        assert np.array_equal(ir.query(s, q).value, want)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_far_out_points_match_scan(d, k):
    rng = np.random.default_rng(60 + 10 * d + k)
    n = 128
    coords = rng.random((n, d))
    far_rows = rng.choice(n, 40, replace=False)
    coords[far_rows, rng.integers(0, d, 40)] = rng.choice(_FAR, 40)
    coords[far_rows[:6]] = rng.choice(_FAR, (6, d))  # far in every dimension
    pts = ir.WeightedPointSet(coords, rng.permutation(n), np.ones(n))
    s = ir.build_ids(pts, k, ir.ID_SET)
    los = (-2e19, -1e300, 1e19, 0.3)
    his = (2e19, 1e300, np.inf, -1e19, 0.7)
    for _ in range(120):
        lo, hi = [], []
        for _ in range(k):
            a = rng.choice(los) if rng.random() < 0.5 else rng.uniform(-0.2, 1.2)
            b = rng.choice(his) if rng.random() < 0.5 else rng.uniform(-0.2, 1.2)
            lo.append(float(min(a, b)))
            hi.append(float(max(a, b)))
        lo += [NEG_INF] * (d - k)
        hi += [float(rng.choice(his)) if rng.random() < 0.5 else rng.uniform(-0.2, 1.2) for _ in range(d - k)]
        q = Box(tuple(lo), tuple(hi))
        ans, audit = ir.query(s, q, return_audit=True)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        for bx in audit:
            assert all(bl >= ql for bl, ql in zip(bx.lo, q.lo))
            assert all(bh <= qh for bh, qh in zip(bx.hi, q.hi))


def test_far_out_points_dominance_match_scan():
    rng = np.random.default_rng(71)
    n = 128
    coords = rng.random((n, 2))
    far_rows = rng.choice(n, 40, replace=False)
    coords[far_rows, rng.integers(0, 2, 40)] = rng.choice(_FAR, 40)
    pts = ir.WeightedPointSet(coords, np.arange(n), np.ones(n))
    ds = ir.build_dominance(pts, 32, ir.ID_SET)
    corners = np.vstack((rng.uniform(-0.2, 1.2, (60, 2)), rng.choice((*_FAR, 0.5), (60, 2))))
    for q in corners:
        ans = ir.dominance_query(ds, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, Box((NEG_INF, NEG_INF), tuple(q))))


def test_nan_point_coordinates_rejected():
    coords = np.random.default_rng(0).random((8, 2))
    coords[3, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        ir.WeightedPointSet(coords, np.arange(8), np.ones(8))
    coords[3, 1] = np.inf  # infinite coordinates are ordinary points outside the cube
    assert len(ir.WeightedPointSet(coords, np.arange(8), np.ones(8))) == 8


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_batched_candidates_match_per_tuple_inside(d, k):
    """Each tuple's rows from the per-piece lookup and mask equal the rows of
    its own ``inside`` call, in the same order, for every tuple of pairs.
    Every such row's family index lies in [depth(v), depth(u) + 1] per
    two-sided dimension (v the piece's child of the split node, u the pair's
    left node), so a depth filter on the lookup would drop nothing."""
    rng = np.random.default_rng(80 + 10 * d + k)
    pts = ir.uniform_random(4096, d, seed=90 + d + k)
    s = ir.build_ids(pts, k, ir.MAX_REAL)
    sums, h = s.sums, s.config.h
    family = np.empty((len(sums.counts), k), dtype=np.int64)
    for (_, index), (start, stop) in sums.blocks.items():
        family[start:stop] = index
    tuples_seen = rows_seen = narrowed = 0  # narrowed: the tuple's own filter drops pool rows
    for q in _uniform_queries(rng, d, k, 25):
        pieces, singleton_only = I.decompose_query(s, q)
        if singleton_only:
            continue
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        for piece in pieces:
            dim_spans = [I._piece_segments(s, piece, i)[2] for i in range(k)]
            if not all(len(sp) for sp in dim_spans):
                continue
            tuples = np.asarray(list(itertools.product(*[range(len(sp)) for sp in dim_spans])))
            a, b = (np.stack([sp[tuples[:, i], end] for i, sp in enumerate(dim_spans)], axis=1) for end in (0, 1))
            pool, mask = I._tuple_candidates(sums, piece.orientation, a, b, qlo, qhi)
            low = np.asarray([v.depth for v in piece.vnodes])
            for t in range(len(tuples)):
                want = sums.inside(qlo, qhi, 1, orient=piece.orientation, spans=(a[t], b[t]))
                assert np.array_equal(pool[mask[t]], want)
                u_depth = np.rint(-np.log2(b[t] - a[t])).astype(np.int64)
                assert np.all(family[want] >= low) and np.all(family[want] <= np.minimum(u_depth + 1, h))
                tuples_seen += 1
                rows_seen += want.size
                narrowed += want.size < pool.size
    assert tuples_seen > 100 and rows_seen > 0 and narrowed > 0
