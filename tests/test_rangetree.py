import numpy as np
import pytest

import idemrange as ir
from idemrange import Box
from idemrange import rangetree
from idemrange.rangetree import _level_slices, box_sums
from idemrange.semigroup import fold_values


def _points(rng, n, d):
    """n points with tied coordinates, some outside the unit cube."""
    coords = rng.integers(-2, 11, (n, d)) / 8  # on a coarse grid: ties in every dimension
    loose = rng.random(n) < 0.3
    coords[loose] = rng.uniform(-0.5, 1.5, (int(loose.sum()), d))
    return ir.WeightedPointSet(coords, rng.permutation(n) * 3 - n, np.ones(n))


def _boxes(rng, coords, count):
    """Random closed boxes: faces on point coordinates, narrow and -inf-low
    boxes, an inverted box, and two boxes holding every point."""
    n, d = coords.shape
    faces = rng.uniform(-0.7, 1.7, (2, count, d))
    faces[1, ::3] = faces[0, ::3] + rng.uniform(0.0, 0.15, (len(faces[0, ::3]), d))  # narrow, often empty
    snap = coords[rng.integers(0, n, (2, count, d)), np.arange(d)]
    faces = np.where(rng.random((2, count, d)) < 0.4, snap, faces)
    lo, hi = np.sort(faces, axis=0)
    lo[rng.random((count, d)) < 0.2] = -np.inf
    lo[:2], hi[:2] = -np.inf, np.inf
    lo[2], hi[2] = 0.75, 0.25  # inverted: empty
    return lo, hi


@pytest.mark.parametrize("name", ["max", "or", "idset"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_box_sums_match_scan(monkeypatch, name, d):
    sg = ir.semigroup_by_name(name)
    rng = np.random.default_rng(10 * d + len(name))
    for n in (1, 3, 37, 256):
        pts = _points(rng, n, d)
        weights = rng.integers(0, 2**63, n, dtype=np.uint64)
        w = sg.weights(pts, weights)
        lo, hi = _boxes(rng, pts.coords, 40)
        # chunk of 1: one box per chunk, and every non-trivial box larger than its chunk
        for chunk in (1, 7, 1 << 16):
            monkeypatch.setattr(rangetree, "_CHUNK_PAIRS", chunk)
            counts, values = box_sums(pts.coords, w, sg, lo, hi)
            assert counts.dtype == np.int64
            # every box one by one, and all of them as one shuffled batch with repeats
            # (id-sets are listed on demand, so the batch is one gather)
            rows = np.concatenate((rng.permutation(len(lo)), rng.integers(0, len(lo), 9)))
            assert values[rows].dtype == w.dtype  # weights, never an object array
            per_row = []
            for r in rows.tolist():
                if np.any(lo[r] > hi[r]):  # an inverted box holds nothing (Box refuses one)
                    assert counts[r] == 0
                    continue
                box = Box(tuple(lo[r]), tuple(hi[r]))
                want = ir.scan_value(pts, box, sg, weights)
                assert counts[r] == np.count_nonzero(ir.scan_mask(pts.coords, box))
                if want is None:
                    assert counts[r] == 0
                    continue
                got = sg.reduce(values[[r]])
                assert sg.equal(got, want) and type(got) is type(want)
                if name == "idset":
                    assert got.dtype == np.int64 and np.array_equal(got, ir.scan_ids(pts, box))
                per_row.append(got)
            # the batch's reduce is the fold of its boxes' values (an empty box is never read)
            got, want = sg.reduce(values[rows[counts[rows] > 0]]), fold_values(per_row, sg)
            assert sg.equal(got, want) and type(got) is type(want)


def _slice_test_boxes(rng, coords, count):
    """Random boxes with -inf and finite dim-1 lows, and dim-0 prefixes of
    every length with unbounded and random dim-1 ranges."""
    n, d = coords.shape
    lo, hi = _boxes(rng, coords, count)
    xs = np.sort(coords[:, 0])
    pre_hi = np.repeat(xs[:, None], d, axis=1)
    pre_hi[:, 1:] = np.inf
    pre_lo = np.full((n, d), -np.inf)
    cut_hi = pre_hi.copy()
    cut_lo = pre_lo.copy()
    if d > 1:
        cut_lo[:, 1] = rng.choice(coords[:, 1], n)
        cut_hi[:, 1] = cut_lo[:, 1] + rng.uniform(0.0, 1.0, n)
    return np.concatenate((lo, pre_lo, cut_lo)), np.concatenate((hi, pre_hi, cut_hi))


@pytest.mark.parametrize("name", ["max", "or"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 1000, 1023, 1025])
def test_slice_values_match_expanded_members(name, d, n):
    # max and or values come from per-level sparse tables, id-sets are listed
    # from the tree on demand: each box's value must be the reduce over its members
    sg = ir.semigroup_by_name(name)
    rng = np.random.default_rng([n, d, len(name)])
    coords = rng.integers(0, 33, (n, d)) / 32  # ties in every dimension
    pts = ir.WeightedPointSet(coords, np.arange(n), np.ones(n))
    raw = rng.integers(0, 50, n) / 7 - 3 if name == "max" else rng.integers(0, 2**64 - 1, n, dtype=np.uint64)
    w = sg.weights(pts, raw)  # max: tied weights, negatives included
    lo, hi = _slice_test_boxes(rng, coords, 200)
    # every sparse-table row is read: slice widths reach every power of two up to n
    rows = set()
    for _, batches in _level_slices(coords, lo, hi):
        rows.update(np.unique(np.frexp(np.concatenate([b[2] for b in batches]))[1] - 1).tolist())
    assert rows == set(range(n.bit_length()))
    assert np.isinf(lo[:, -1]).any() and np.isfinite(lo[:, -1]).any()

    counts, values = box_sums(coords, w, sg, lo, hi)
    member_counts, members = box_sums(coords, pts.ids, ir.ID_SET, lo, hi)
    assert np.array_equal(counts, member_counts) and values.dtype == w.dtype
    for r in range(len(lo)):
        if members[[r]].size == 0:
            assert counts[r] == 0
            continue
        want, got = sg.reduce(w[members[[r]]]), sg.reduce(values[[r]])
        assert got == want and type(got) is type(want)
