"""Differential test of the main structure against the brute-force scan.

Id-set answers list the exact ids inside the query, so comparing them with
``scan_ids`` checks the whole cover: every point is counted, and none from
outside.  The inputs mix the layouts that break covers: tied coordinates,
points on dyadic boundaries, tight clusters and points outside the unit
cube, and points on the faces of stored boxes (coordinates of the
structure's own family points), with query bounds that often sit on point
coordinates or dyadic boundaries.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import idemrange as ir
from idemrange import NEG_INF, Box

KINDS = ("uniform", "tied", "dyadic", "clustered", "off-cube", "faces")


def _points(rng, n, d, k, mix):
    """n points, each of a kind drawn with the weights ``mix``."""
    cfg = ir.IdsConfig.for_input(n, d, k)
    h = cfg.h
    kind = rng.choice(len(KINDS), n, p=np.asarray(mix) / sum(mix))
    coords = rng.random((n, d))
    coords[kind == 1] = rng.integers(0, 9, (int(np.sum(kind == 1)), d)) / 8
    coords[kind == 2] = rng.integers(0, (1 << h) + 1, (int(np.sum(kind == 2)), d)) / (1 << h)
    centres = rng.random((2, d))
    cl = np.flatnonzero(kind == 3)
    coords[cl] = centres[rng.integers(0, 2, cl.size)] + rng.normal(0.0, 0.01, (cl.size, d))
    coords[kind == 4] = rng.uniform(-1.0, 2.0, (int(np.sum(kind == 4)), d))
    faces = np.concatenate([ps.coords for ps in ir.build_cwd_family(cfg.N, h, k, d).sets.values()])
    on = np.flatnonzero(kind == 5)
    coords[on] = faces[rng.integers(0, len(faces), (on.size, d)), np.arange(d)]  # each coordinate from any family point
    return ir.WeightedPointSet(coords, rng.permutation(n) * 5 - n, np.ones(n)), h


def _bound(rng, coords, j, h):
    """A query bound in dim j: on a point coordinate, on a dyadic boundary, or anywhere."""
    r = rng.random()
    if r < 0.4:
        return float(coords[rng.integers(0, len(coords)), j])
    if r < 0.6:
        return float(rng.integers(0, (1 << h) + 1) / (1 << h))
    return float(rng.uniform(-1.2, 2.2))


@settings(max_examples=120, deadline=None)
@given(
    dk=st.sampled_from([(2, 1), (3, 1), (3, 2)]),
    n=st.integers(16, 500),
    mix=st.lists(st.integers(0, 4), min_size=len(KINDS), max_size=len(KINDS)).filter(any),
    seed=st.integers(0, 2**32 - 1),
)
def test_idset_answers_match_scan(dk, n, mix, seed):
    d, k = dk
    rng = np.random.default_rng(seed)
    pts, h = _points(rng, n, d, k, mix)
    s = ir.build_ids(pts, k, ir.ID_SET)
    for _ in range(12):
        lo, hi = [], []
        for j in range(d):
            b = _bound(rng, pts.coords, j, h)
            if j < k:
                a = _bound(rng, pts.coords, j, h)
                lo.append(min(a, b))
                hi.append(max(a, b))
            else:
                lo.append(NEG_INF)
                hi.append(b)
        q = Box(tuple(lo), tuple(hi))
        ans, audit = ir.query(s, q, return_audit=True)
        want = ir.scan_ids(pts, q)
        got = ans.value if ans.value is not None else np.empty(0, np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert len(audit) == ans.sums_used
        for box in audit:
            assert all(b >= a for a, b in zip(q.lo, box.lo)) and all(b <= a for a, b in zip(q.hi, box.hi))
