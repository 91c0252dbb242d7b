import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import idemrange as ir
from idemrange.semigroup import fold_values, singleton_value, stored_value


def _random_values(sg, rng, count):
    if sg.name == "max":
        return list(rng.standard_normal(count) * 10)
    if sg.name == "or":
        return [int(x) for x in rng.integers(0, 2**63, count, dtype=np.uint64)]
    return [frozenset(rng.integers(0, 50, rng.integers(0, 6)).tolist()) for _ in range(count)]


@pytest.mark.parametrize("name", ["max", "or", "idset"])
def test_semigroup_laws_random_triples(name):
    # associativity, commutativity, idempotence on 10^4 sampled triples
    sg = ir.semigroup_by_name(name)
    rng = np.random.default_rng(1)
    vals = _random_values(sg, rng, 30)
    checked = 0
    while checked < 10_000:
        a, b, c = (vals[i] for i in rng.integers(0, len(vals), 3))
        assert sg.equal(sg.combine(a, sg.combine(b, c)), sg.combine(sg.combine(a, b), c))
        assert sg.equal(sg.combine(a, b), sg.combine(b, a))
        assert sg.equal(sg.combine(a, a), a)
        checked += 1


def test_combine_all_examples():
    assert ir.combine_all([1, 5, 3], ir.MAX_REAL) == 5
    assert set(ir.combine_all([{1, 2}, {2, 3}], ir.ID_SET).tolist()) == {1, 2, 3}
    assert ir.combine_all([0b0101], ir.BIT_OR64) == 0b0101


def test_combine_all_empty_raises():
    with pytest.raises(ir.EmptyAggregate):
        ir.combine_all([], ir.MAX_REAL)
    with pytest.raises(ir.EmptyAggregate):
        fold_values([], ir.ID_SET)


def test_fold_matches_combine_all():
    rng = np.random.default_rng(2)
    for name in ("max", "or", "idset"):
        sg = ir.semigroup_by_name(name)
        for _ in range(50):
            vals = _random_values(sg, rng, int(rng.integers(1, 8)))
            assert sg.equal(fold_values(vals, sg), ir.combine_all(vals, sg))


@given(st.lists(st.frozensets(st.integers(0, 100), max_size=5), min_size=1, max_size=6))
def test_idset_fold_is_union(sets):
    got = fold_values(sets, ir.ID_SET)
    assert set(got.tolist()) == set().union(*sets)


def test_semigroup_by_name_unknown():
    with pytest.raises(KeyError):
        ir.semigroup_by_name("sum")


def _weights(sg, rng, n):
    if sg.name == "max":
        return rng.standard_normal(n)
    if sg.name == "or":
        return rng.integers(0, 2**63, n, dtype=np.uint64)
    return rng.permutation(n).astype(np.int64) - n // 2  # ids, negatives included


@pytest.mark.parametrize("name", ["max", "or", "idset"])
def test_singleton_value_on_index_array_is_fold_of_singletons(name):
    sg = ir.semigroup_by_name(name)
    rng = np.random.default_rng(5)
    w = _weights(sg, rng, 60)
    for _ in range(100):
        idx = rng.integers(0, 60, int(rng.integers(1, 40)))  # unsorted, with repeats
        got = singleton_value(sg, idx, w)
        want = fold_values([singleton_value(sg, int(i), w) for i in idx], sg)
        assert sg.equal(got, want)
        assert type(got) is type(want)
        if name == "idset":
            assert got.dtype == np.int64 and np.array_equal(got, want)
    # the empty sum is absent, as for an empty stored sum
    assert singleton_value(sg, np.empty(0, dtype=np.int64), w) is None
    assert singleton_value(sg, np.empty(0, dtype=np.int64), w) is stored_value(sg, np.empty(0, dtype=np.int64), w)


def test_idset_fold_matches_np_unique():
    rng = np.random.default_rng(6)
    big = 2**62
    for _ in range(300):
        vals = []
        for _ in range(int(rng.integers(1, 6))):
            v = rng.integers(-40, 40, int(rng.integers(0, 30)))
            if rng.random() < 0.2:
                v = np.concatenate([v, rng.integers(-big, big, 3)])
            kind = rng.integers(0, 3)
            vals.append(v if kind == 0 else set(v.tolist()) if kind == 1 else frozenset(v.tolist()))
        flat = [np.asarray(sorted(v), dtype=np.int64) if isinstance(v, (set, frozenset)) else v for v in vals]
        want = np.unique(np.concatenate(flat).astype(np.int64))
        got = fold_values(vals, ir.ID_SET)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for empties in ([np.empty(0, dtype=np.int64)], [set(), frozenset()], [np.empty(0, dtype=np.int64), set()]):
        got = fold_values(empties, ir.ID_SET)
        assert got.dtype == np.int64 and got.size == 0


@pytest.mark.parametrize("name, op", [("max", np.maximum), ("or", np.bitwise_or)])
def test_reduce_is_the_array_op(name, op):
    sg = ir.semigroup_by_name(name)
    w = _weights(sg, np.random.default_rng(8), 30)
    assert sg.op is op
    got = sg.reduce(w)
    assert got == sg.single(sg.op.reduce(w)) == ir.combine_all([sg.single(x) for x in w], sg)
    assert type(got) is type(sg.single(w[0]))


def test_idset_has_no_array_op():
    assert ir.ID_SET.op is None


def test_nan_weights_are_refused():
    # a max over NaN depends on operand order, so structure and scan could disagree
    pts = ir.uniform_random(256, 2, seed=3)
    w = np.random.default_rng(3).random(256)
    w[17] = np.nan
    for sg in (ir.MAX_REAL, ir.BIT_OR64):
        with pytest.raises(ValueError, match="NaN"):
            sg.weights(pts, w)
    with pytest.raises(ValueError, match="NaN"):
        ir.MAX_REAL.weights(ir.WeightedPointSet(pts.coords, pts.ids, w.copy()))  # the points' own weights
    with pytest.raises(ValueError, match="NaN"):
        ir.build_ids(pts, 1, ir.MAX_REAL, weights=w)
    with pytest.raises(ValueError, match="NaN"):
        ir.build_dominance(pts, 16, ir.MAX_REAL, weights=w)
    with pytest.raises(ValueError, match="NaN"):
        ir.scan_value(pts, ir.Box((0.0, ir.NEG_INF), (1.0, 1.0)), ir.MAX_REAL, w)
    w[17] = np.inf  # infinities are ordinary weights
    assert ir.scan_value(pts, ir.Box((0.0, ir.NEG_INF), (1.0, 1.0)), ir.MAX_REAL, w) == np.inf


@pytest.mark.parametrize("sg", [ir.MAX_REAL, ir.BIT_OR64], ids=["max", "or"])
@pytest.mark.parametrize("weights", [np.ones(10), np.arange(100.0), np.ones((64, 1)), np.ones((2, 64))], ids=["short", "long", "column", "2-d"])
def test_weights_of_the_wrong_shape_are_refused(sg, weights):
    # one weight per point: a short array used to raise a bare IndexError, a long one was silently cut
    pts = ir.uniform_random(64, 2, seed=4)
    with pytest.raises(ValueError, match="shape"):
        sg.weights(pts, weights)
    with pytest.raises(ValueError, match="shape"):
        ir.build_ids(pts, 1, sg, weights=weights)
    with pytest.raises(ValueError, match="shape"):
        ir.build_dominance(pts, 16, sg, weights=weights)
    assert sg.weights(pts, np.ones(64)).shape == (64,)
