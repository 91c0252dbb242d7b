import numpy as np
import pytest

import idemrange as ir
from idemrange import Box
from idemrange.rangetree import box_sums


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
def test_box_sums_match_scan(name, d):
    sg = ir.semigroup_by_name(name)
    rng = np.random.default_rng(10 * d + len(name))
    for n in (1, 3, 37, 256):
        pts = _points(rng, n, d)
        weights = rng.integers(0, 2**63, n, dtype=np.uint64)
        w = sg.weights(pts, weights)
        lo, hi = _boxes(rng, pts.coords, 40)
        # chunk of 1: one box per chunk, and every non-trivial box larger than its chunk
        for chunk in (1, 7, 1 << 16):
            counts, values = box_sums(pts.coords, w, sg, lo, hi, chunk)
            assert counts.dtype == np.int64 and values.dtype == object
            for r in range(len(lo)):
                if np.any(lo[r] > hi[r]):  # an inverted box holds nothing (Box refuses one)
                    assert counts[r] == 0 and values[r] is None
                    continue
                box = Box(tuple(lo[r]), tuple(hi[r]))
                want = ir.scan_value(pts, box, sg, weights)
                assert counts[r] == np.count_nonzero(ir.scan_mask(pts.coords, box))
                if want is None:
                    assert values[r] is None
                    continue
                assert sg.equal(values[r], want) and type(values[r]) is type(want)
                if name == "idset":
                    assert values[r].dtype == np.int64 and np.array_equal(values[r], want)

