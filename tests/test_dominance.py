import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idemrange as ir


def test_maxima_examples():
    assert ir.maxima(np.array([[1, 3], [2, 2], [3, 1]])).tolist() == [0, 1, 2]
    assert ir.maxima(np.array([[1, 1], [2, 2]])).tolist() == [1]


def _pairwise_maxima(coords):
    """Points no other point strictly dominates; of equal points, the first."""
    out = []
    for i in range(len(coords)):
        dominated = False
        for j in range(len(coords)):
            if np.all(coords[j] >= coords[i]) and (np.any(coords[j] > coords[i]) or j < i):
                dominated = True
        if not dominated:
            out.append(i)
    return out


@given(st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_maxima_matches_pairwise_oracle(seed, dd):
    coords = np.random.default_rng(seed).random((10, dd))
    assert ir.maxima(coords).tolist() == _pairwise_maxima(coords)


@pytest.mark.parametrize("dd", [1, 2, 3])
def test_maxima_keeps_the_first_of_equal_points(dd):
    assert ir.maxima(np.array([[0.5] * dd, [0.5] * dd, [0.1] * dd])).tolist() == [0]
    rng = np.random.default_rng(dd)
    ties = 0
    for _ in range(60):
        coords = rng.integers(0, 3, (12, dd)) / 2  # a coarse lattice: many equal points
        ties += len(np.unique(coords, axis=0)) < len(coords)
        assert ir.maxima(coords).tolist() == _pairwise_maxima(coords)
    assert ties > 40


@pytest.mark.parametrize("dd", [1, 2, 3])
def test_grouped_cover_matches_per_group_calls(dd):
    """One grouped ``dominance_cover`` call equals one single call per group:
    the same maxima (as indices into all candidates, ascending), covered
    targets and used maxima.  Group 2 has targets but no candidate, one of
    them at -inf in every dimension, and group 5 candidates but no target;
    a coarse lattice gives ties and equal points."""
    rng = np.random.default_rng(70 + dd)
    for trial in range(40):
        cand = rng.integers(0, 3, (24, dd)) / 2
        targets = rng.integers(0, 3, (40, dd)) / 2
        cand_groups = rng.choice([0, 1, 3, 4, 5], 24)
        target_groups = rng.integers(0, 5, 40)
        target_groups[:2] = 2, 0
        targets[:2] = -np.inf  # dominated by every point, but group 2 has no candidate
        if trial % 2:  # candidates in group order, as a query sends them
            order = np.argsort(cand_groups, kind="stable")
            cand, cand_groups = cand[order], cand_groups[order]
        m_idx, covered, used = ir.dominance_cover(cand, targets, cand_groups, target_groups)
        want_m, want_used = [], []
        want_covered = np.zeros(len(targets), dtype=bool)
        for g in range(6):
            c_idx, t_idx = np.nonzero(cand_groups == g)[0], np.nonzero(target_groups == g)[0]
            m, cov, took = ir.dominance_cover(cand[c_idx], targets[t_idx])
            want_m += c_idx[m].tolist()
            want_used += took.tolist()
            want_covered[t_idx] = cov
        by_index = np.argsort(want_m)
        assert m_idx.tolist() == sorted(want_m)
        assert used.tolist() == np.array(want_used, dtype=bool)[by_index].tolist()
        assert np.array_equal(covered, want_covered)
        assert not covered[0] and covered[1]
        assert np.array_equal(ir.maxima(cand, cand_groups), m_idx)


def _hand_points():
    return ir.WeightedPointSet(
        np.array([[0.1, 0.1], [0.2, 0.3], [0.6, 0.2], [0.7, 0.8]]),
        np.arange(4),
        np.ones(4),
    )


def test_build_stored_values_match_scan():
    rng = np.random.default_rng(5)
    pts = ir.uniform_random(8, 2, seed=9).with_weights(rng.random(8))
    ds = ir.build_dominance(pts, 2, ir.MAX_REAL)
    for s_idx in range(2):
        dominated = np.all(pts.coords <= ds.samples[s_idx], axis=1)
        if dominated.any():
            got = ds.sg.reduce(ds.sums.values[[s_idx]])
            assert got == pytest.approx(float(pts.weights[dominated].max())) and type(got) is float
        else:
            assert ds.sums.counts[s_idx] == 0


@pytest.mark.parametrize("name", ["max", "or", "idset"])
def test_stored_values_and_answers_match_scan_value(name):
    sg = ir.semigroup_by_name(name)
    pts = ir.uniform_random(64, 2, seed=11)
    weights = np.random.default_rng(12).integers(0, 2**63, 64, dtype=np.uint64)
    ds = ir.build_dominance(pts, 16, sg, weights=weights)
    corners = np.vstack((ds.samples, np.random.default_rng(13).random((30, 2))))
    for i, corner in enumerate(corners):
        want = ir.scan_value(pts, ir.Box((ir.NEG_INF, ir.NEG_INF), tuple(corner)), sg, weights)
        if i < ds.num_sums and want is None:
            assert ds.sums.counts[i] == 0
            continue
        got = sg.reduce(ds.sums.values[[i]]) if i < ds.num_sums else ir.dominance_query(ds, corner).value
        if want is None:
            assert got is None
        else:
            assert sg.equal(got, want) and type(got) is type(want)


def test_build_sample_count_guards():
    pts = _hand_points()
    with pytest.raises(ValueError):
        ir.build_dominance(pts, 0, ir.MAX_REAL)
    with pytest.raises(ValueError):
        ir.build_dominance(pts, 5, ir.MAX_REAL)
    one = ir.build_dominance(pts, 1, ir.MAX_REAL)
    assert one.num_sums == 1


def test_nan_samples_are_refused():
    # a NaN sample would store a sum no query can use, and count it in s_plus
    pts = ir.uniform_random(64, 2, seed=10)
    with pytest.raises(ValueError, match="NaN"):
        ir.build_dominance(pts, 2, ir.ID_SET, samples=[[0.5, np.nan], [0.9, 0.9]])
    ds = ir.build_dominance(pts, 2, ir.ID_SET, samples=[[np.inf, np.inf], [0.9, 0.9]])  # infinities are corners
    assert ds.sums.counts[0] == 64 and ir.dominance_query(ds, (np.inf, np.inf)).total_cost == 1


def test_query_hand_example_full_corner():
    ds = ir.build_dominance(_hand_points(), 1, ir.ID_SET, samples=np.array([[0.5, 0.5]]))
    ans = ir.dominance_query(ds, (0.9, 0.9))
    assert set(ans.value.tolist()) == {0, 1, 2, 3}
    assert ans.sums_used == 1 and ans.singletons_used == 2
    assert ans.total_cost == 3


def test_query_hand_example_sample_missed():
    ds = ir.build_dominance(_hand_points(), 1, ir.ID_SET, samples=np.array([[0.5, 0.5]]))
    ans = ir.dominance_query(ds, (0.65, 0.4))
    assert set(ans.value.tolist()) == {0, 1, 2}
    assert ans.sums_used == 0 and ans.singletons_used == 3


def test_query_empty():
    ds = ir.build_dominance(_hand_points(), 1, ir.ID_SET, samples=np.array([[0.5, 0.5]]))
    ans = ir.dominance_query(ds, (0.0, 0.0))
    assert ans.value is None and ans.total_cost == 0


def test_oracle_equivalence_and_containment_small():
    pts = ir.uniform_random(512, 2, seed=3)
    ds = ir.build_dominance(pts, 64, ir.ID_SET)
    rng = np.random.default_rng(8)
    for _ in range(300):
        q = rng.random(2)
        ans = ir.dominance_query(ds, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        want = np.sort(pts.ids[np.all(pts.coords <= q, axis=1)])
        assert np.array_equal(got, want)


def test_used_sums_regions_inside_query():
    pts = ir.uniform_random(256, 2, seed=4)
    ds = ir.build_dominance(pts, 32, ir.ID_SET)
    rng = np.random.default_rng(9)
    for _ in range(200):
        q = rng.random(2)
        live = np.nonzero(np.all(ds.samples <= q, axis=1) & (ds.sums.counts >= 1))[0]
        m_idx, _, _ = ir.dominance_cover(ds.samples[live], pts.coords[:0])
        for s_idx in live[m_idx]:
            assert np.all(ds.samples[s_idx] <= q)


def test_dominance_1d():
    pts = ir.uniform_random(64, 1, seed=6)
    ds = ir.build_dominance(pts, 8, ir.ID_SET)
    for q in (0.3, 0.9):
        ans = ir.dominance_query(ds, (q,))
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        want = np.sort(pts.ids[pts.coords[:, 0] <= q])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("q", [(0.5,), (0.5, 0.5, 0.5), (float("nan"), 0.5), 0.5, ((0.5, 0.5),)])
def test_malformed_query_raises(q):
    ds = ir.build_dominance(_hand_points(), 2, ir.ID_SET)
    with pytest.raises(ir.MalformedQuery):
        ir.dominance_query(ds, q)


def test_storage_reporting():
    pts = ir.uniform_random(128, 2, seed=2)
    ds = ir.build_dominance(pts, 16, ir.ID_SET)
    assert ds.num_sums == 16
    assert 0 <= ds.s_plus <= 16
