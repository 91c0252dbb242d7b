import dataclasses
import hashlib
import itertools
import math
import types

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


@pytest.mark.parametrize("d, k, n", [(2, 1, 512), (3, 1, 512), (3, 2, 1024)])
def test_stored_boxes_match_box_of(monkeypatch, d, k, n):
    """Every stored row equals ``box_of`` of its family point bit for bit;
    the points left out are those ``box_of`` rejects; rows run in block
    order, each block by dim 0 with ties in family order.  A fifth of the
    family points are snapped onto dyadic boundaries r/2^dep (0 and 1
    included) in the two-sided dimensions, which also ties many on dim 0."""
    real = I.build_cwd_family
    rng = np.random.default_rng(n + k)

    def snapped(*args):
        fam = real(*args)
        sets = {}
        for index, ps in fam.sets.items():
            c = ps.coords.copy()
            scale = 2.0 ** rng.integers(1, fam.h + 1, size=(len(c), k))
            snap = rng.random(len(c)) < 0.2
            c[snap, :k] = np.round(c[snap, :k] * scale[snap]) / scale[snap]
            sets[index] = ir.WeightedPointSet(c, ps.ids, ps.weights)
        return dataclasses.replace(fam, sets=sets)

    monkeypatch.setattr(I, "build_cwd_family", snapped)
    s = ir.build_ids(ir.uniform_random(n, d, seed=n), k, ir.MAX_REAL)
    sums, dyadic_boundary, left_out, row, nonempty = s.sums, 0, 0, 0, 0
    for orient in itertools.product("RL", repeat=k):
        for index, ps in s.family.sets.items():
            dyadic_boundary += int(np.sum(np.all(ps.coords[:, :k] * 2.0 ** np.asarray(index) % 1 == 0, axis=1)))
            order = np.argsort(ps.coords[:, 0], kind="stable")
            boxes = [(x, I.box_of(x, index, orient, s.trees)) for x in ps.coords[order]]
            kept = [(x, box) for x, box in boxes if box is not None]
            left_out += len(boxes) - len(kept)
            if not kept:
                assert (orient, index) not in s.blocks
                continue
            assert s.blocks[orient, index] == (row, row + len(kept))
            blk = slice(row, row + len(kept))
            assert sums.box_lo[blk].tobytes() == np.array([box.lo for _, box in kept]).tobytes()
            assert sums.box_hi[blk].tobytes() == np.array([box.hi for _, box in kept]).tobytes()
            row += len(kept)
            nonempty += 1
    assert row == s.num_boxes and nonempty == len(s.blocks)
    assert dyadic_boundary > 0 and left_out > 0
    assert 0 < np.count_nonzero(sums.counts == 0) < len(sums.counts)
    rows, bounds, multi = sums.by_hi0
    held = np.flatnonzero(sums.counts >= 1).tolist()  # an empty box is never indexed
    assert rows.tolist() == sorted(held, key=lambda r: sums.box_hi[r, 0])  # stable: block order on ties
    assert bounds.tobytes() == np.hstack((sums.box_lo[rows], sums.box_hi[rows])).T.tobytes()
    assert multi.tolist() == [sums.counts[r] >= 2 for r in rows.tolist()]
    assert 0 < multi.sum() < multi.size
    pieces = list(itertools.product("LR", repeat=k))  # decompose_query's piece order
    orient_of = {r: o for (o, _), (a, b) in s.blocks.items() for r in range(a, b)}
    assert s.codes.tolist() == [pieces.index(orient_of[r]) for r in rows.tolist()]


def test_build_input_guards():
    pts3 = ir.uniform_random(32, 3, seed=0)
    with pytest.raises(ValueError):
        ir.build_ids(pts3, 3, ir.MAX_REAL)  # k >= d
    with pytest.raises(ValueError):
        ir.build_ids(ir.uniform_random(2, 2, seed=0), 1, ir.MAX_REAL)


def test_structure_takes_d_from_its_points():
    """A config made for more dimensions than the points have builds a
    structure of the points' d, which refuses a query of the config's d
    rather than drop its last bound; a k the points' d cannot have fails at
    build."""
    pts = ir.uniform_random(256, 2, seed=1)
    s = ir.IdsStructure(pts, ir.ID_SET, ir.IdsConfig.for_input(256, 3, 1))
    with pytest.raises(ir.MalformedQuery, match="3 dims"):
        ir.query(s, Box((0.2, NEG_INF, NEG_INF), (0.8, 0.5, 0.1)))
    q = Box((0.2, NEG_INF), (0.8, 0.5))
    assert ir.query(s, q).value.tolist() == ir.scan_ids(pts, q).tolist()
    with pytest.raises(ValueError, match="k=2, d=2"):
        ir.IdsStructure(pts, ir.ID_SET, ir.IdsConfig.for_input(256, 3, 2))


def _check_blocks_against_scan(pts, s):
    """Every block's row range holds its own boxes, in dim-0 order, and each
    box's count and id-set (one row, then the block's rows at once) match
    the scan."""
    sums, sg = s.sums, s.sg
    checked = 0
    for (orient, index), (start, stop) in s.blocks.items():
        x0 = (sums.box_hi if orient[0] == "R" else sums.box_lo)[start:stop, 0]  # the family point's dim 0
        assert start < stop and np.all(np.diff(x0) >= 0)
        rows = np.arange(start, stop)
        block_ids = []
        for r in rows.tolist():
            box = Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r]))
            want = ir.scan_ids(pts, box)
            assert sums.counts[r] == want.size
            if want.size:
                assert np.array_equal(sg.reduce(sums.values[[r]]), want)
                block_ids.append(want)
            checked += 1
        full = rows[sums.counts[rows] > 0]
        if full.size:
            assert np.array_equal(sg.reduce(sums.values[full]), np.unique(np.concatenate(block_ids)))
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
        want = ir.scan_value(pts, box, sg, weights)
        assert sums.counts[r] == np.count_nonzero(ir.scan_mask(pts.coords, box))
        if want is None:
            assert sums.counts[r] == 0
        else:
            got = sg.reduce(sums.values[[r]])
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
    """A piece answered alone: its cover pass and compression with the
    piece itself as containment box (query() uses the whole query box
    instead, letting sums straddle the split), then the fold."""
    lo, hi = np.asarray(piece.lo), np.asarray(piece.hi)
    pos = s.sums.inside(lo, hi)
    rows, leftover = I._compress(s, pos, *I._cover_pieces(s, [piece], pos, lo, hi))
    assert np.all(s.sums.box_lo[rows] >= lo) and np.all(s.sums.box_hi[rows] <= hi)
    return I._evaluate(s, rows, leftover)


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
    # the tuples' grouped cover step and the dominance structure use the same
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
    assert sums
    for ids, box, count in sums:
        assert count >= 2 and count == len(ids)
        assert np.array_equal(ids, ir.scan_ids(pts, box))
        assert all(bl >= ql for bl, ql in zip(box.lo, q.lo))
        assert all(bh <= qh for bh, qh in zip(box.hi, q.hi))


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_idset_query_sorts_once_per_part(monkeypatch, d, k):
    """An id-set answer sorts its ids at most three times, however many sums
    it uses: once for all used sums' members, once for the singletons, once
    in the fold of the two."""
    pts = ir.uniform_random(1024, d, seed=25)
    s = ir.build_ids(pts, k, ir.ID_SET)
    calls = []
    real = ir.semigroup._sorted_unique
    monkeypatch.setattr(ir.semigroup, "_sorted_unique", lambda ids: calls.append(1) or real(ids))
    many = 0
    for q in _uniform_queries(np.random.default_rng(26), d, k, 40):
        calls.clear()
        ans = ir.query(s, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert np.array_equal(got, ir.scan_ids(pts, q))
        if ans.sums_used >= 5:
            assert len(calls) <= 3, (ans.sums_used, len(calls))
            many += 1
    assert many >= 10


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


def _kernel_settings(*chunk_cells):
    """(``_DENSE_RATIO``, ``_CHUNK_CELLS``) settings that run every
    ``_inside_bits`` call on the rank tables, then on the dense compare in
    chunks of each of ``chunk_cells`` cells."""
    return [(math.inf, I._CHUNK_CELLS)] + [(0, c) for c in chunk_cells]


@pytest.mark.parametrize("m", [2, 5, 63, 64, 65, 129, 200])
@pytest.mark.parametrize("d", [2, 3])
def test_greedy_cover_matches_dense_reference(monkeypatch, m, d):
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
    # rank tables, then the dense compare in one chunk, 7-row chunks and 1-row chunks
    for dense_ratio, chunk_cells in _kernel_settings(I._CHUNK_CELLS, 7 * m, 1):
        monkeypatch.setattr(I, "_DENSE_RATIO", dense_ratio)
        monkeypatch.setattr(I, "_CHUNK_CELLS", chunk_cells)
        picks, alive = I._greedy_cover(pts, lo, hi)
        assert picks == want_picks
        assert np.array_equal(alive, want_alive)


def _scan_rows(blocks, sums, qlo, qhi, min_count=1, orient=None, spans=None):
    """Reference for every stored-sum lookup: each of the ``blocks``' rows
    tested in block order.  Keeps the sums of at least ``min_count`` members inside
    [qlo, qhi]; ``orient`` keeps one orientation, and ``spans`` = (a, b) the
    boxes with lo <= a and hi >= b in the first len(a) dims."""
    keep = []
    for (o, _), (start, stop) in blocks.items():
        if orient is not None and o != orient:
            continue
        lo, hi = sums.box_lo[start:stop], sums.box_hi[start:stop]
        ok = (sums.counts[start:stop] >= min_count) & np.all(lo >= qlo, axis=1) & np.all(hi <= qhi, axis=1)
        if spans is not None:
            k = len(spans[0])
            ok &= np.all(lo[:, :k] <= spans[0], axis=1) & np.all(hi[:, :k] >= spans[1], axis=1)
        keep.extend((start + np.flatnonzero(ok)).tolist())
    return keep


def _window_rows(sums, pos):
    """The rows at ``inside`` positions, in block order."""
    return np.sort(sums.by_hi0[0][pos])


def _two_per_dim(sums, rows, pts):
    """Reference for the compression pool's leftover test: the ``rows``
    whose box holds two or more of ``pts`` in every single dimension, each
    (box, point, dimension) compared on its own."""
    rows = np.asarray(rows, dtype=np.int64)
    lo, hi = sums.box_lo[rows], sums.box_hi[rows]
    per_dim = ((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :])).sum(axis=1)
    return rows[(per_dim >= 2).all(axis=1)]


def _compress_pool(monkeypatch, s, pos, leftover):
    """The boxes ``_compress`` hands to its greedy for these leftovers."""
    seen = []
    real = I._greedy_cover
    monkeypatch.setattr(I, "_greedy_cover", lambda p, bl, bh: seen.append((bl, bh)) or real(p, bl, bh))
    I._compress(s, pos, I._NONE, leftover)
    monkeypatch.setattr(I, "_greedy_cover", real)
    return seen


def _assert_pool(monkeypatch, s, pos, leftover, want):
    (got_lo, got_hi), = _compress_pool(monkeypatch, s, pos, leftover)
    assert np.array_equal(got_lo, s.sums.box_lo[want]) and np.array_equal(got_hi, s.sums.box_hi[want])


def test_sum_index_matches_block_scan(monkeypatch):
    """The ``inside`` positions and every lookup narrowed from them (the
    cover tuples' candidates, the compression pool) equal the block scan's
    rows."""
    pts = ir.uniform_random(256, 3, seed=22)
    s = ir.build_ids(pts, 2, ir.ID_SET)
    sums = s.sums
    rng = np.random.default_rng(23)
    orients = list(itertools.product("LR", repeat=2))  # by orientation number
    found = compressed = narrowed = 0
    for q in _uniform_queries(rng, 3, 2, 30):
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        pos = sums.inside(qlo, qhi)
        assert _window_rows(sums, pos).tolist() == _scan_rows(s.blocks, sums, qlo, qhi)
        inner = s.grid.points_in_box(qlo, qhi)
        multi = _scan_rows(s.blocks, sums, qlo, qhi, 2)
        for size in (max(2, inner.size // 2), min(3, inner.size)) if inner.size >= 2 else ():  # many, then few
            leftover = rng.choice(inner, size, replace=False)
            want = _two_per_dim(sums, multi, pts.coords[leftover])
            _assert_pool(monkeypatch, s, pos, leftover, want)
            compressed += len(want)
            narrowed += len(multi) - len(want)
        # every orientation against one span pair at a time, all in one call
        mid = (qlo[:2] + qhi[:2]) / 2
        spans = [
            (np.array([0.3, 0.5]), np.array([0.35, 0.55])),
            (mid, mid),  # boxes spanning the query's centre
            (np.full(2, np.inf), np.full(2, -np.inf)),  # every box: the orientation's rows
        ]
        cases = [(code, a, b) for a, b in spans for code in range(len(orients))]
        codes = np.array([code for code, _, _ in cases])
        a, b = (np.array([c[i] for c in cases]) for i in (1, 2))
        tuples, rows = I._tuple_candidates(sums, s.codes, pos, codes, a, b)
        assert np.all(np.diff(tuples) >= 0)
        for t, (code, a, b) in enumerate(cases):
            want = _scan_rows(s.blocks, sums, qlo, qhi, 1, orients[code], None if np.isinf(a[0]) else (a, b))
            assert rows[tuples == t].tolist() == want
            found += len(want)
    assert found > 15 and compressed > 15 and narrowed > 15


def test_sum_index_edge_layouts():
    """A hand-built index: no R rows, rows tied on hi0 within and across
    blocks, empty boxes, dim-0 windows that hold no key, and L boxes on a
    window's edges: one with hi0 inside but lo0 below it, one with hi0 at
    its low end and one with hi0 at its high end."""
    rng = np.random.default_rng(25)
    pts = rng.integers(0, 8, (64, 2)) / 8
    blocks, chosen = {}, []
    for index in (1, 2, 3):
        coords = pts[rng.choice(64, 12, replace=False)]
        blocks[("L",), (index,)] = (12 * len(chosen), 12 * len(chosen) + 12)
        chosen.append(coords[np.argsort(coords[:, 0], kind="stable")])
    coords = np.concatenate(chosen)
    lo, hi = coords.copy(), coords.copy()
    hi[:, 0] += 1.0 / (1 << np.repeat([1, 2, 3], 12))
    hi[::5, 1] = -1.0  # below every point: an empty box
    lo[:, 1] = NEG_INF
    # rows 36-38 against the window [0.5, 0.75]: lo0 below it, hi0 at its low end, hi0 at its high end
    blocks[("L",), (4,)] = (36, 39)
    lo = np.vstack((lo, [(0.45, NEG_INF), (0.5, NEG_INF), (0.55, NEG_INF)]))
    hi = np.vstack((hi, [(0.6, 1.0), (0.5, 1.0), (0.75, 1.0)]))
    pts = np.vstack((pts, [(0.5, 0.25), (0.5, 0.3), (0.7, 0.25)]))
    sums = I._SumIndex(lo, hi, pts, np.arange(67), ir.ID_SET)
    codes = np.zeros(sums.by_hi0[0].size, dtype=np.int64)  # all L
    assert np.all(sums.counts[36:] >= 1)
    x0 = sums.box_hi[:, 0]  # the view's key
    assert np.unique(x0[:12]).size < 12 and np.intersect1d(x0[:12], x0[12:24]).size  # tied within and across blocks
    queries = [
        (np.array([0.3, NEG_INF]), np.array([1.0, 0.8])),
        (np.array([0.26, NEG_INF]), np.array([0.37, 1.0])),  # no key in [0.26, 0.37]: empty window
        (np.array([-1.0, NEG_INF]), np.array([2.0, 2.0])),  # everything
        (np.array([0.5, NEG_INF]), np.array([0.75, 1.0])),  # starts on a tied key value
    ]
    queries += [(np.array([a, NEG_INF]), np.array([a + w, 1.0])) for a, w in rng.random((20, 2)).tolist()]
    anything = np.array([[np.inf]] * 2), np.array([[-np.inf]] * 2)  # spans every box
    for qlo, qhi in queries:
        pos = sums.inside(qlo, qhi)
        assert pos.dtype == np.int64 and np.all(np.diff(pos) > 0)  # strictly ascending
        got = _window_rows(sums, pos).tolist()
        assert got == _scan_rows(blocks, sums, qlo, qhi)
        tuples, rows = I._tuple_candidates(sums, codes, pos, np.array([0, 1]), *anything)  # L, then R
        assert rows.tolist() == got and not tuples.any()  # no R row: the R tuple has none
    empty = sums.inside(*queries[1])
    assert empty.dtype == np.int64 and empty.size == 0
    edges = _window_rows(sums, sums.inside(*queries[3])).tolist()
    assert 36 not in edges and 37 in edges and 38 in edges
    held = np.flatnonzero(sums.counts >= 1)
    assert held.size < len(x0) and _window_rows(sums, sums.inside(*queries[2])).tolist() == held.tolist()


def test_compression_pool_edge_cases(monkeypatch):
    """The pool ``_compress`` hands its greedy, on a hand-built (2, 1) index
    against six leftovers: ties on x0 and on x1, one at -inf in the one-sided
    dimension, one at +inf and one at -inf in dim 0.  Boxes (lo0, hi0, hi1),
    lo1 = -inf, with whether each holds two or more of the leftovers in
    every dimension; every box holds two or more input points but B9."""
    leftovers = [(0.2, 0.5), (0.2, 0.3), (0.4, 0.5), (0.6, NEG_INF), (np.inf, 0.1), (NEG_INF, 0.9)]
    extras = [(0.18, 0.0), (0.19, 0.01), (0.45, 0.2), (0.8, 0.5)]  # input points that are not leftovers
    boxes = [
        ((0.2, 0.2, 0.5), True),  # B1: leftovers on both dim-0 faces, tied; hi0 is the second-smallest x0
        ((0.15, 0.2, 0.05), False),  # B2: tied on hi0 with B1; one leftover (-inf) in dim 1
        ((0.3, 0.5, 1.0), False),  # B3: exactly one leftover in dim 0
        ((0.5, np.inf, 1.0), True),  # B4: the +inf leftover is the second in dim 0
        ((0.7, np.inf, 1.0), False),  # B5: hi0 = +inf and one leftover above lo0
        ((0.1, 0.2, 0.5), True),  # B6: tied on hi0 with B1
        ((0.0, 0.19, 1.0), False),  # B7: hi0 below the second-smallest leftover x0
        ((NEG_INF, 0.2, 1.0), True),  # B8: a -inf face holds the -inf leftover
        ((0.2, 0.4, 0.35), False),  # B9: two per dimension, but one input point inside
        ((0.4, 0.6, 0.5), True),  # B10: leftovers on both dim-0 faces
    ]
    lo = np.array([(b[0], NEG_INF) for b, _ in boxes])
    hi = np.array([(b[1], b[2]) for b, _ in boxes])
    coords = np.array(leftovers + extras)
    blocks = {(("L",), (1,)): (0, len(boxes))}
    sums = I._SumIndex(lo, hi, coords, np.arange(len(coords)), ir.ID_SET)
    assert (sums.counts >= 2).tolist() == [i != 8 for i in range(len(boxes))]
    struct = types.SimpleNamespace(points=types.SimpleNamespace(coords=coords), sums=sums,
                                   config=types.SimpleNamespace(k=1))
    qlo, qhi = np.full(2, NEG_INF), np.full(2, np.inf)
    leftover = np.arange(len(leftovers))
    want = [r for r, (_, two) in enumerate(boxes) if two]
    ref = _two_per_dim(sums, _scan_rows(blocks, sums, qlo, qhi, 2), coords[leftover])
    assert ref.tolist() == want
    _assert_pool(monkeypatch, struct, sums.inside(qlo, qhi), leftover, want)
    # the same boxes against every pair of the leftovers, and against a query that cuts B4, B5 and B8
    for pair in itertools.combinations(leftover, 2):
        pair = np.array(pair)
        for qlo, qhi in [(np.full(2, NEG_INF), np.full(2, np.inf)), (np.array([0.0, NEG_INF]), np.array([0.9, 1.0]))]:
            want = _two_per_dim(sums, _scan_rows(blocks, sums, qlo, qhi, 2), coords[pair])
            _assert_pool(monkeypatch, struct, sums.inside(qlo, qhi), pair, want)


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_one_sum_lookup_per_query(monkeypatch, d, k):
    """A query with pieces looks stored sums up once, and a singleton-only
    query never; no lookup returns an empty sum or one outside its box."""
    pts = ir.uniform_random(1024, d, seed=50 + d + k)
    s = ir.build_ids(pts, k, ir.MAX_REAL)
    calls = []
    real = I._SumIndex.inside

    def inside(self, qlo, qhi):
        pos = real(self, qlo, qhi)
        rows = _window_rows(self, pos)
        assert np.all(self.counts[rows] >= 1)
        assert np.all(self.box_lo[rows] >= qlo) and np.all(self.box_hi[rows] <= qhi)
        calls.append(rows.size)
        return pos

    monkeypatch.setattr(I._SumIndex, "inside", inside)
    rng = np.random.default_rng(51)
    queries = _uniform_queries(rng, d, k, 40)
    w = 1.0 / (1 << s.config.h)
    queries.append(Box((3.1 * w,) * k + (NEG_INF,) * (d - k), (3.9 * w,) * k + (0.8,) * (d - k)))  # in one leaf slab
    with_pieces = singleton_only = 0
    for q in queries:
        calls.clear()
        ans = ir.query(s, q)
        want = ir.scan_value(pts, q, ir.MAX_REAL)
        assert (ans.value is None) if want is None else ans.value == want
        if ir.decompose_query(s, q)[1]:
            assert calls == []
            singleton_only += 1
        else:
            assert len(calls) == 1
            with_pieces += 1
    assert with_pieces >= 20 and singleton_only >= 1


# Per-query (sums_used, singletons_used) of the first 40 uniform queries;
# lookup changes must leave every one of them unchanged.
PINNED_COSTS = {
    (2, 1): [
        (15, 17), (1, 7), (3, 13), (9, 9), (8, 20), (4, 9), (12, 14), (4, 3), (11, 16), (9, 13),
        (4, 15), (12, 5), (4, 10), (7, 17), (10, 8), (10, 13), (6, 3), (10, 24), (5, 18), (5, 12),
        (9, 7), (4, 13), (9, 20), (5, 22), (8, 9), (4, 9), (10, 10), (10, 20), (8, 16), (10, 25),
        (4, 10), (9, 8), (7, 13), (4, 11), (0, 4), (5, 15), (9, 19), (9, 17), (11, 16), (8, 19),
    ],
    (3, 2): [
        (0, 3), (0, 0), (0, 9), (0, 3), (7, 26), (0, 12), (4, 49), (1, 15), (1, 30), (1, 41),
        (3, 50), (2, 21), (1, 6), (0, 0), (6, 27), (1, 11), (0, 7), (7, 43), (0, 26), (0, 2),
        (1, 26), (0, 2), (0, 7), (0, 3), (1, 20), (0, 3), (0, 4), (12, 67), (0, 3), (1, 13),
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
# piece whose closed side holds it, but is counted once, as is a stored sum
# that several cover tuples use.
PINNED_MIDPOINT = {
    (2, 1): [
        (6, 6, '0a57f3ec5334'), (8, 6, '20bcddc031f6'), (4, 3, '7ee1526318a5'), (2, 3, '5a47c1d8b796'),
        (8, 6, '38188090fb8b'), (0, 2, '4f53cda18c2b'), (4, 13, 'c3894ac2c8f0'), (5, 7, '2053461fa1a6'),
        (6, 7, 'b366b481a3ee'), (8, 11, '0148d7fec90b'), (7, 7, 'ac7a4db88c4b'), (3, 13, '045209896bbd'),
        (7, 8, '4f29b363fb59'), (6, 12, '407b4d69c48c'), (8, 15, '6f76e0c92006'), (6, 5, '1b0e5a93bdb3'),
        (5, 4, 'd749f2edf583'), (8, 15, '7eb3d72ce563'), (13, 17, 'f996eac05cdc'), (2, 3, 'b5b3f0e3d411'),
        (6, 5, '3915c2748f59'), (9, 6, 'ecfe015568ff'), (3, 14, '03a35c8b8e9b'), (8, 9, '53dd77e01463'),
    ],
    (3, 2): [
        (4, 35, '4bcca49f7a08'), (2, 12, '67b6f8eb80cf'), (3, 35, 'ee63042af322'), (3, 12, '6f586e121988'),
        (0, 18, '4f53cda18c2b'), (20, 73, 'ac47918e9d88'), (1, 39, 'ef1e9d1b6d56'), (4, 30, '353957f0bbc3'),
        (1, 41, '31baa0055486'), (19, 63, '4a4a96f53ab5'), (1, 33, '40f4f9fd6903'), (4, 17, '9ffcd221f3fb'),
        (12, 59, 'e5c7d338a66f'), (1, 22, '37cb68bc09e1'), (9, 55, '2710dc6c7120'), (17, 48, 'a3e75febd449'),
        (0, 2, '4f53cda18c2b'), (0, 22, '4f53cda18c2b'), (6, 20, '863bdd9bd214'), (4, 25, 'e5af0645d138'),
        (0, 21, '4f53cda18c2b'), (1, 31, '34b8b3b8e712'), (3, 31, '14a217804f0a'), (2, 44, 'e9b84c799db5'),
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


def _covers(monkeypatch, s, queries):
    """Run the queries, recording each one's cover twice: as ``_cover_pieces``
    returns it, by query number, and as ``_evaluate`` folds it (after
    compression).  Also counts the queries in which some stored sum is a
    candidate of two or more cover tuples of one piece.  Returns (covers,
    folds, shared)."""
    covers, folds, shared = {}, [], set()
    real_cover, real_eval, real_cand = I._cover_pieces, I._evaluate, I._tuple_candidates

    def tuple_candidates(sums, row_codes, pos, codes, a, b):
        tuples, rows = real_cand(sums, row_codes, pos, codes, a, b)
        uses = np.unique(np.stack((codes[tuples], rows)), axis=1, return_counts=True)[1]  # per (piece, row)
        if np.any(uses >= 2):
            shared.add(len(folds))
        return tuples, rows

    monkeypatch.setattr(I, "_tuple_candidates", tuple_candidates)
    monkeypatch.setattr(I, "_cover_pieces", lambda *a: covers.setdefault(len(folds), real_cover(*a)))
    monkeypatch.setattr(I, "_evaluate", lambda st, r, lf: folds.append((r, lf)) or real_eval(st, r, lf))
    for q in queries:
        ans = ir.query(s, q)
        assert ans.sums_used == folds[-1][0].size and ans.singletons_used == folds[-1][1].size
    return covers, folds, len(shared)


def _assert_paid_once(pairs):
    for rows, leftover in pairs:
        assert np.unique(rows).size == rows.size
        assert np.unique(leftover).size == leftover.size


def test_each_stored_sum_paid_once(monkeypatch):
    """A stored sum that serves several cover tuples of a piece is used,
    and paid, once; the used rows keep their order of first use."""
    pts = ir.uniform_random(1024, 2, seed=31)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    queries = _uniform_queries(np.random.default_rng(31), 2, 1, 40)
    covers, folds, shared = _covers(monkeypatch, s, queries)
    assert shared >= 10  # the case exercises shared candidates
    _assert_paid_once(covers.values())
    _assert_paid_once(folds)
    for i, (rows, _) in covers.items():
        assert np.array_equal(folds[i][0][: rows.size], rows)  # the greedy's picks follow the cover's rows


@pytest.mark.parametrize("d,k,seed", [(2, 1, 61), (3, 2, 62)], ids=["2-1", "3-2"])
def test_each_midpoint_point_paid_once(monkeypatch, d, k, seed):
    """A leftover on a split midpoint belongs to every piece that holds it,
    but is listed, and paid, once."""
    pts, queries = _midpoint_case(d, k, seed)
    s = ir.build_ids(pts, k, ir.ID_SET)
    covers, folds, _ = _covers(monkeypatch, s, queries)
    _assert_paid_once(covers.values())
    _assert_paid_once(folds)


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
def test_greedy_cover_window_edges(monkeypatch, name):
    pts, lo, hi = _greedy_case(name)
    want_picks, want_alive, _ = _greedy_reference(pts, lo, hi)
    for dense_ratio, chunk_cells in _kernel_settings(I._CHUNK_CELLS, 3, 1):
        monkeypatch.setattr(I, "_DENSE_RATIO", dense_ratio)
        monkeypatch.setattr(I, "_CHUNK_CELLS", chunk_cells)
        picks, alive = I._greedy_cover(pts, lo, hi)
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
def test_inside_bits_matches_dense_containment(monkeypatch, m, chunk_cells):
    """Both kernels: the rank tables, and the dense compare in chunks of ``chunk_cells`` cells."""
    monkeypatch.setattr(I, "_CHUNK_CELLS", chunk_cells)
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
    for dense_ratio in (math.inf, 0):  # every call on the rank tables, then every call dense
        monkeypatch.setattr(I, "_DENSE_RATIO", dense_ratio)
        bits = I._inside_bits(pts, lo, hi)
        assert bits.dtype == np.uint64 and bits.shape == (60, -(-m // 64))
        unpacked = np.unpackbits(bits.view(np.uint8), axis=1, bitorder="little").astype(bool)
        assert np.array_equal(unpacked[:, :m], dense)
        assert not unpacked[:, m:].any()  # padding bits are never set
        assert np.array_equal(np.bitwise_count(bits).sum(axis=1), dense.sum(axis=1))
        assert I._inside_bits(pts, lo[:0], hi[:0]).shape == (0, bits.shape[1])


def test_greedy_prefilter_keeps_boxes_with_two_per_dimension(monkeypatch):
    """Boxes reach the greedy iff they are sums of two or more members
    inside the query holding two or more leftovers in every single
    dimension (closed on both faces).  At k = 1 dim 1 is one-sided, its low
    faces -inf; at k = 2 both dimensions take the two-sided test."""
    for k in (1, 2):
        _check_prefilter(monkeypatch, k)


def _check_prefilter(monkeypatch, k):
    rng = np.random.default_rng(43)
    pts = rng.random((30, 2))
    pts[:10] = np.round(pts[:10] * 4) / 4  # ties
    lo = rng.random((300, 2)) * 1.2 - 0.1
    hi = lo + rng.random((300, 2)) * 0.3
    lo[:100], hi[100:200] = pts[rng.integers(0, 30, 100)], pts[rng.integers(0, 30, 100)]  # faces on points
    hi = np.maximum(lo, hi)
    lo[::9, 1] = NEG_INF
    if k == 1:
        lo[:, 1] = NEG_INF
    coords = np.vstack((pts, rng.random((2000, 2)) * 1.2 - 0.1))  # the leftovers, then other input points
    sums = I._SumIndex(lo, hi, coords, np.arange(2030), ir.ID_SET)
    struct = types.SimpleNamespace(points=types.SimpleNamespace(coords=coords), sums=sums,
                                   config=types.SimpleNamespace(k=k))
    per_dim = ((pts[None, :, :] >= lo[:, None, :]) & (pts[None, :, :] <= hi[:, None, :])).sum(axis=1)
    two = (per_dim >= 2).all(axis=1)
    assert 0 < two.sum() and ((per_dim >= 1).all(axis=1) & ~two).sum() > 10
    assert (~two & (sums.counts >= 2)).sum() > 10  # the leftover test drops sums of two or more members
    # every box inside, then a query that cuts some boxes holding two per dimension
    for qlo, qhi in [(np.full(2, NEG_INF), np.full(2, np.inf)), (np.array([0.0, NEG_INF]), np.array([1.1, 1.1]))]:
        inside = (sums.counts >= 2) & np.all(lo >= qlo, axis=1) & np.all(hi <= qhi, axis=1)
        _assert_pool(monkeypatch, struct, sums.inside(qlo, qhi), np.arange(30), np.flatnonzero(two & inside))
    assert (two & ~inside & (sums.counts >= 2)).sum() > 10


def test_query_checks_audits_and_folds_cover_rows(monkeypatch):
    pts = ir.uniform_random(256, 2, seed=24)
    s = ir.build_ids(pts, 1, ir.ID_SET)
    sums = s.sums
    q = Box((0.1, NEG_INF), (0.9, 0.8))
    rows = _window_rows(sums, sums.inside(np.asarray(q.lo), np.asarray(q.hi)))[:5]
    assert rows.size == 5
    none = np.empty(0, dtype=np.int64)
    monkeypatch.setattr(I, "_cover_pieces", lambda *args: (rows[::-1], none))
    ans, audit = ir.query(s, q, return_audit=True)
    assert audit == [Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r])) for r in rows[::-1]]
    # no leftovers: the answer folds just the used sums' values, gathered at the end
    want = np.unique(np.concatenate([ir.scan_ids(pts, b) for b in audit]))
    assert (ans.sums_used, ans.singletons_used) == (5, 0) and np.array_equal(ans.value, want)
    assert I._evaluate(s, rows[:0], none).value is None
    escaping = np.nonzero(np.any(sums.box_hi > q.hi, axis=1))[0][:1]
    monkeypatch.setattr(I, "_cover_pieces", lambda *args: (np.concatenate((rows[:2], escaping)), none))
    with pytest.raises(AssertionError, match="used sum escapes the query box"):
        ir.query(s, q)


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
    """Each tuple's rows from one call over the query's positions equal the
    rows of its own block scan, in the same order, for every tuple of pairs
    of every piece; a tuple that spans nothing gets the piece's rows inside
    the query.  Every such row's family index lies in [depth(v), depth(u) +
    1] per two-sided dimension (v the piece's child of the split node, u the
    pair's left node), so a depth filter on the lookup would drop nothing."""
    rng = np.random.default_rng(80 + 10 * d + k)
    pts = ir.uniform_random(4096, d, seed=90 + d + k)
    s = ir.build_ids(pts, k, ir.MAX_REAL)
    sums, h = s.sums, s.config.h
    family = np.empty((len(sums.counts), k), dtype=np.int64)
    for (_, index), (start, stop) in s.blocks.items():
        family[start:stop] = index
    orients = list(itertools.product("LR", repeat=k))  # by orientation number
    tuples_seen = rows_seen = narrowed = 0  # narrowed: the tuple's own spans drop rows of its piece
    for q in _uniform_queries(rng, d, k, 25):
        pieces, singleton_only = I.decompose_query(s, q)
        if singleton_only:
            continue
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        cases = []  # (piece, a, b) per tuple, in piece order; a = inf, b = -inf spans nothing
        for piece in pieces:
            # each dimension's u-intervals, by depth, at the depths that have a pair
            dim_spans = [I._side_cover(s, piece, i)[3] for i in range(k)]
            dim_spans = [sp[~np.isnan(sp[:, 0])] for sp in dim_spans]
            if not all(len(sp) for sp in dim_spans):
                continue
            for t in itertools.product(*[range(len(sp)) for sp in dim_spans]):
                cases.append((piece, *(np.array([sp[i, end] for i, sp in zip(t, dim_spans)]) for end in (0, 1))))
            cases.append((piece, np.full(k, np.inf), np.full(k, -np.inf)))
        codes = np.array([orients.index(piece.orientation) for piece, _, _ in cases], dtype=np.int64)
        a, b = (np.array([c[i] for c in cases]) for i in (1, 2))
        tuples, rows = I._tuple_candidates(sums, s.codes, sums.inside(qlo, qhi), codes, a, b)
        assert np.all(np.diff(tuples) >= 0)
        piece_rows = {  # per piece, its rows inside the query: the same for each of its tuples
            o: np.asarray(_scan_rows(s.blocks, sums, qlo, qhi, 1, o), dtype=np.int64)
            for o in {piece.orientation for piece, _, _ in cases}
        }
        for t, (piece, at, bt) in enumerate(cases):
            in_piece = piece_rows[piece.orientation]
            got = rows[tuples == t].tolist()
            if np.isinf(at[0]):
                assert got == in_piece.tolist()
                continue
            assert got == _scan_rows(s.blocks, sums, qlo, qhi, 1, piece.orientation, (at, bt))
            spanning = np.all(sums.box_lo[in_piece, :k] <= at, axis=1) & np.all(sums.box_hi[in_piece, :k] >= bt, axis=1)
            assert got == in_piece[spanning].tolist()  # the block scan's rows that span the tuple
            low = np.asarray([v.depth for v in piece.vnodes])
            u_depth = np.rint(-np.log2(bt - at)).astype(np.int64)
            assert np.all(family[got] >= low) and np.all(family[got] <= np.minimum(u_depth + 1, h))
            tuples_seen += 1
            rows_seen += len(got)
            narrowed += len(got) < in_piece.size
    assert tuples_seen > 100 and rows_seen > 0 and narrowed > 0


def _walk_split(tree, lo, hi):
    """The highest node whose midpoint lies in [lo, hi] clipped to [0, 1],
    by a walk from the root; None when no internal node's does."""
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    node = Node(0, 0)
    while not tree.is_leaf(node):
        mid = tree.m(node)
        if lo <= mid <= hi:
            return node
        node = tree.left_child(node) if hi < mid else tree.right_child(node)
    return None


def _reference_labels(tree, root, corner, right, x):
    """Per coordinate, the depth of the cover pair whose half-open u-slab
    holds it, or -1 in the corner's leaf; a coordinate is first clamped
    into the root's slab (closed at b(root) as the last slab is).  The
    corner's leaf is the tree's leaf holding it, or, for a corner beyond the
    root, the root's edge leaf on its side, walked down node by node."""
    a_root, b_root = tree.interval(root)
    leaf = tree.locate_leaf(min(max(corner, 0.0), 1.0))
    if not tree.is_ancestor(root, leaf):
        outside_left = tree.a(leaf) < a_root
        leaf = root
        while not tree.is_leaf(leaf):
            leaf = tree.left_child(leaf) if outside_left else tree.right_child(leaf)
    pairs = (ir.balanced_prefix_cover if right else ir.suffix_cover)(tree, leaf, root=root)
    y = np.minimum(np.maximum(x, a_root), np.nextafter(b_root, -np.inf))
    slabs = np.asarray([tree.interval(p.u) for p in pairs]).reshape(-1, 2)
    holds = (slabs[:, :1] <= y) & (y < slabs[:, 1:])
    assert np.all(holds.sum(axis=0) <= 1)
    depths = np.asarray([p.u.depth for p in pairs], dtype=np.int64)
    labels = np.where(holds.any(axis=0), depths[holds.argmax(axis=0)] if len(pairs) else -1, -1)
    tail = labels == -1
    assert np.all((tree.a(leaf) <= y[tail]) & (y[tail] < tree.b(leaf)))  # only the corner's leaf is left
    return labels, pairs


def _closed_form_queries(rng, d, k, g):
    """Queries whose two-sided bounds are random, dyadic (leaf boundaries
    and node midpoints), beyond [0, 1] or infinite, and whose L corner
    sometimes sits on the split midpoint."""
    out = []
    for t in range(240):
        lo, hi = [], []
        for _ in range(k):
            kind = t % 6
            if kind == 0:
                a, b = sorted(rng.random(2).tolist())
            elif kind == 1:  # leaf boundaries
                a, b = sorted((rng.integers(0, g + 1, 2) / g).tolist())
            elif kind == 2:  # corners beyond the cube
                a = float(rng.choice([-0.3, -1e300, rng.random()]))
                b = float(rng.choice([1.2, np.inf, 1e300, rng.random() + 1e-9]))
            elif kind == 3:  # the L corner on a node midpoint (so on the split)
                j = int(rng.integers(1, 6))
                a = (2 * int(rng.integers(0, 1 << (j - 1))) + 1) / (1 << j)
                b = min(1.0, a + float(rng.choice([0.0, rng.random() / (1 << j)])))
            elif kind == 4:  # the R corner on a node midpoint
                j = int(rng.integers(1, 6))
                b = (2 * int(rng.integers(0, 1 << (j - 1))) + 1) / (1 << j)
                a = max(-0.1, b - float(rng.choice([0.0, rng.random() / (1 << j)])))
            else:  # inside one leaf, or tight around one boundary
                c = int(rng.integers(1, g)) / g
                a, b = c - float(rng.random()) / g, c + float(rng.choice([0.0, rng.random() / g]))
            lo.append(min(a, b))
            hi.append(max(a, b))
        lo += [NEG_INF] * (d - k)
        hi += rng.choice([0.5, 1.0, np.inf, -0.1], d - k, p=[0.3, 0.3, 0.3, 0.1]).tolist()  # -0.1: no split
        out.append(Box(tuple(lo), tuple(hi)))
    return out


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_closed_form_matches_per_node_reference(d, k):
    """``decompose_query``'s split equals a midpoint walk down the tree, and
    ``_point_labels`` gives each coordinate on a piece's side the depth of
    the cover pair whose u-slab holds it, or -1 in the corner's leaf, with
    that pair's ``tree.interval`` at its depth in ``_side_cover``'s spans."""
    rng = np.random.default_rng(100 + 10 * d + k)
    s = ir.build_ids(ir.uniform_random(256, d, seed=7), k, ir.ID_SET)
    h, trees = s.config.h, s.trees
    g = 1 << h
    bounds = np.arange(-1, g + 2) / g
    xs = np.concatenate((
        bounds, np.nextafter(bounds, -np.inf), np.nextafter(bounds, np.inf), (np.arange(g) + 0.5) / g,
        rng.uniform(-0.5, 1.5, 200), [-np.inf, -1e300, -1e19, 1e19, 1e300, np.inf],
    ))
    seen = dict.fromkeys(("labels", "tail", "on_split", "off_cube", "l_corner_on_split", "split"), 0)
    for q in _closed_form_queries(rng, d, k, g):
        pieces, singleton_only = I.decompose_query(s, q)
        nodes = [_walk_split(trees[i], q.lo[i], q.hi[i]) for i in range(k)]
        assert singleton_only == (None in nodes or any(v < 0.0 for v in q.hi[k:]))
        if singleton_only:
            assert pieces == []
            continue
        seen["split"] += 1
        assert [p.orientation for p in pieces] == list(itertools.product("LR", repeat=k))
        for piece in pieces:
            for i, (side, node) in enumerate(zip(piece.orientation, nodes)):
                tree, mid = trees[i], trees[i].m(node)
                if side == "L":
                    assert (piece.lo[i], piece.hi[i], piece.vnodes[i]) == (q.lo[i], mid, tree.left_child(node))
                else:
                    assert (piece.lo[i], piece.hi[i], piece.vnodes[i]) == (mid, q.hi[i], tree.right_child(node))
                x = np.concatenate((xs, [mid, piece.lo[i], piece.hi[i]]))
                x = x[(x >= piece.lo[i]) & (x <= piece.hi[i])]
                corner = piece.hi[i] if side == "R" else piece.lo[i]
                want, pairs = _reference_labels(tree, piece.vnodes[i], corner, side == "R", x)
                cover = I._side_cover(s, piece, i)
                got, spans = I._point_labels(h, cover, x), cover[3]
                assert got.tolist() == want.tolist()
                depths = [p.u.depth for p in pairs]
                assert spans.shape == (h + 1, 2)
                assert [tuple(spans[dp]) for dp in depths] == [tree.interval(p.u) for p in pairs]
                assert np.isnan(np.delete(spans, depths, axis=0)).all()
                seen["labels"] += x.size
                seen["tail"] += int(np.sum(got == -1))
                seen["on_split"] += int(np.sum(x == mid))
                seen["off_cube"] += int(np.sum((x < 0) | (x > 1)))
                seen["l_corner_on_split"] += side == "L" and piece.lo[i] == mid
    assert all(seen.values()), seen
    assert seen["labels"] > 50_000


def _query_spans(s, pieces):
    """Each (dimension, side) cover's u-intervals by depth, as ``_cover_pieces``
    builds them for ``_spanning``: [dim, side (L, R), depth]."""
    k, h = s.config.k, s.config.h
    spans = np.full((k, 2, h + 1, 2), np.nan)
    for piece in pieces:
        for i, side in enumerate(piece.orientation):
            spans[i, "LR".index(side)] = I._side_cover(s, piece, i)[3]
    return spans


def _spanning_reference(sums, code, spans, pos):
    """The positions whose box spans some u-interval of its own side's
    cover in every two-sided dimension, each row and interval compared on
    its own."""
    bounds = sums.by_hi0[1]
    k, d = spans.shape[0], len(bounds) // 2
    keep = []
    for p in pos.tolist():
        ok = True
        for j in range(k):
            iv = spans[j, (code[p] >> (k - 1 - j)) & 1]
            iv = iv[~np.isnan(iv[:, 0])]
            ok &= bool(np.any((bounds[j, p] <= iv[:, 0]) & (bounds[d + j, p] >= iv[:, 1])))
        keep.append(ok)
    return pos[np.array(keep, dtype=bool)]


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_prefilter_keeps_every_candidate(d, k):
    """Property: over random queries, ``_spanning`` keeps exactly the
    ``inside`` rows that span an interval of their own side's cover in every
    two-sided dimension, and every row that ``_tuple_candidates`` returns
    from the unfiltered positions, for any tuple of pairs the covers allow,
    is one of them."""
    rng = np.random.default_rng(110 + 10 * d + k)
    s = ir.build_ids(ir.uniform_random(2048, d, seed=120 + d + k), k, ir.MAX_REAL)
    sums = s.sums
    orients = list(itertools.product("LR", repeat=k))  # by orientation number
    kept = dropped = found = 0
    for q in _uniform_queries(rng, d, k, 40):
        pieces, singleton_only = I.decompose_query(s, q)
        if singleton_only:
            continue
        spans = _query_spans(s, pieces)
        pos = sums.inside(np.asarray(q.lo), np.asarray(q.hi))
        survivors = I._spanning(sums, s.codes, spans, pos)
        assert survivors.tolist() == _spanning_reference(sums, s.codes, spans, pos).tolist()
        codes, a, b = [], [], []
        for piece in pieces:
            per_dim = [spans[i, "LR".index(side)] for i, side in enumerate(piece.orientation)]
            per_dim = [sp[~np.isnan(sp[:, 0])] for sp in per_dim]
            for t in itertools.product(*[range(len(sp)) for sp in per_dim]):
                codes.append(orients.index(piece.orientation))
                a.append([sp[i, 0] for i, sp in zip(t, per_dim)])
                b.append([sp[i, 1] for i, sp in zip(t, per_dim)])
        if codes:
            _, rows = I._tuple_candidates(sums, s.codes, pos, np.array(codes), np.array(a), np.array(b))
            assert np.isin(rows, sums.by_hi0[0][survivors]).all()
            found += rows.size
        kept += survivors.size
        dropped += pos.size - survivors.size
    assert kept > 0 and dropped > 0 and found > 0


def _run_queries(s, queries):
    """Each query's (answer, sums used, singletons used, audit boxes)."""
    out = []
    for q in queries:
        ans, audit = ir.query(s, q, return_audit=True)
        value = ans.value.tolist() if isinstance(ans.value, np.ndarray) else ans.value
        out.append((value, ans.sums_used, ans.singletons_used, [(bx.lo, bx.hi) for bx in audit]))
    return out


def _spanning_calls(monkeypatch):
    """Record each ``_spanning`` call's (rows in, rows out)."""
    calls, real = [], I._spanning

    def spanning(sums, codes, spans, pos):
        out = real(sums, codes, spans, pos)
        calls.append((pos.size, out.size))
        return out

    monkeypatch.setattr(I, "_spanning", spanning)
    return calls


@pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (3, 2)])
def test_prefilter_keeps_answers_and_costs(monkeypatch, d, k):
    """Queries with fewer stored sums inside than points in the box are
    prefiltered (some end early, some go on with the survivors), the others
    are not; either way the answers, costs and ordered audits equal those of
    a run in which the prefilter drops nothing."""
    rng = np.random.default_rng(130 + 10 * d + k)
    pts = ir.uniform_random(2048, d, seed=140 + d + k)
    s = ir.build_ids(pts, k, ir.ID_SET)
    queries = _uniform_queries(rng, d, k, 60)
    queries += [Box(q.lo, tuple(q.lo[i] + (q.hi[i] - q.lo[i]) / 8 for i in range(k)) + q.hi[k:]) for q in queries[:30]]
    # a stored box of one member as the query: at least as many sums inside as points
    queries += [Box(tuple(s.sums.box_lo[r]), tuple(s.sums.box_hi[r])) for r in np.flatnonzero(s.sums.counts == 1)[:8]]
    calls = _spanning_calls(monkeypatch)
    got = _run_queries(s, queries)
    monkeypatch.setattr(I, "_spanning", lambda sums, codes, spans, pos: pos)
    assert got == _run_queries(s, queries)
    for (value, *_), q in zip(got, queries):
        assert (value or []) == ir.scan_ids(pts, q).tolist()
    fewer = more = 0  # queries with pieces and points: fewer sums inside than points, or as many or more
    for q in queries:
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        npts = s.grid.points_in_box(qlo, qhi).size
        if not I.decompose_query(s, q)[1] and npts:
            rows = s.sums.inside(qlo, qhi).size
            fewer += rows < npts
            more += rows >= npts
    ended = sum(out == 0 for _, out in calls)
    assert len(calls) == fewer and more > 0  # the prefilter runs on exactly the first kind
    assert ended > 0 and fewer - ended > 0  # both of its outcomes


@pytest.mark.parametrize("d,k,seed", [(2, 1, 61), (3, 2, 62)], ids=["2-1", "3-2"])
def test_early_out_lists_the_box(monkeypatch, d, k, seed):
    """A query whose window has no row that could serve a cover tuple
    returns no rows and exactly the box's points as leftovers, before any
    label; the full path gives the same answer and cost."""
    pts, queries = _midpoint_case(d, k, seed)
    s = ir.build_ids(pts, k, ir.ID_SET)
    real = I._spanning
    early = dropped = 0
    for q in queries:
        pieces, _ = ir.decompose_query(s, q)
        qlo, qhi = np.asarray(q.lo), np.asarray(q.hi)
        pos = s.sums.inside(qlo, qhi)
        spans = _query_spans(s, pieces)
        if pos.size >= s.grid.points_in_box(qlo, qhi).size or real(s.sums, s.codes, spans, pos).size:
            continue
        early += 1
        dropped += pos.size  # rows inside the query that can serve no tuple
        monkeypatch.setattr(I, "_point_labels", None)  # the early out labels no point
        rows, leftover = I._cover_pieces(s, pieces, pos, qlo, qhi)
        monkeypatch.undo()
        assert rows.size == 0
        assert np.array_equal(np.sort(pts.ids[leftover]), ir.scan_ids(pts, q))
        want = _run_queries(s, [q])
        monkeypatch.setattr(I, "_spanning", lambda sums, codes, spans, pos: pos)  # the full path
        full_rows, full_leftover = I._cover_pieces(s, pieces, pos, qlo, qhi)
        assert full_rows.size == 0 and np.array_equal(np.sort(full_leftover), np.sort(leftover))
        assert _run_queries(s, [q]) == want
        monkeypatch.undo()
    assert early >= 2 and dropped > 0


@pytest.mark.parametrize("d,k", [(2, 1), (3, 2)])
def test_corner_on_first_leaf_has_no_pairs(monkeypatch, d, k):
    """A query whose R corner in dim 0 sits on its piece root's first leaf:
    that cover has no pairs, so no R row in dim 0 survives the prefilter,
    and the answer and cost are those of the unfiltered path."""
    pts = ir.uniform_random(1024, d, seed=150 + d)
    s = ir.build_ids(pts, k, ir.ID_SET)
    w = 1.0 / (1 << s.config.h)
    rng = np.random.default_rng(151)
    queries = []
    for lo0, hi1 in rng.uniform((0.05, 0.3), (0.45, 1.0), (12, 2)).tolist():
        lo = (lo0,) + (0.1,) * (k - 1) + (NEG_INF,) * (d - k)
        hi = (0.5 + 0.5 * w,) + (0.8,) * (k - 1) + (hi1,) * (d - k)
        queries.append(Box(lo, hi))
    sums = s.sums
    r_rows = 0  # queries whose window holds R rows in dim 0, all dropped
    for q in queries:
        pieces, singleton_only = ir.decompose_query(s, q)
        assert not singleton_only
        spans = _query_spans(s, pieces)
        assert np.isnan(spans[0, 1]).all()  # dim 0, side R: no pair
        pos = sums.inside(np.asarray(q.lo), np.asarray(q.hi))
        survivors = I._spanning(sums, s.codes, spans, pos)
        assert not np.any((s.codes[survivors] >> (k - 1)) & 1)  # no R row in dim 0
        r_rows += np.any((s.codes[pos] >> (k - 1)) & 1)
    assert r_rows > 0
    calls = _spanning_calls(monkeypatch)
    got = _run_queries(s, queries)
    assert len(calls) > 0
    monkeypatch.setattr(I, "_spanning", lambda sums, codes, spans, pos: pos)
    assert got == _run_queries(s, queries)
    for (value, *_), q in zip(got, queries):
        assert (value or []) == ir.scan_ids(pts, q).tolist()
