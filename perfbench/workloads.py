"""Workload definitions and seeded input generation for the idemrange benchmark.

Each workload fixes a point distribution, a query distribution, a semigroup
and the size of its query list.  Everything is derived from the seed: the
same seed gives the same points, weights and queries.  The program under
test receives only the generated ``WeightedPointSet``, the weight array and
the ``Box`` list.

Queries come from a randomly shifted Kronecker sequence rather than from
independent draws.  Each query is still uniform over its distribution, but
the query list as a whole covers that distribution evenly, so latency
quantiles vary far less from seed to seed than with i.i.d. queries.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import idemrange  # noqa: E402
from idemrange import BIT_OR64, ID_SET, MAX_REAL, NEG_INF, Box, WeightedPointSet, scan_ids, scan_value  # noqa: E402

if Path(idemrange.__file__).resolve().parent != ROOT / "src" / "idemrange":
    raise ImportError(f"idemrange imported from {idemrange.__file__}, not from {ROOT / 'src'}")

__all__ = ["WORKLOADS", "Workload", "Inputs", "make_inputs", "oracle", "answer_matches"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    d: int
    k: int
    log2_n: int
    points: str  # "uniform" or "clustered"
    queries: str  # "uniform" or "data-corners"
    semigroup: str  # "max", "or" or "idset"
    num_queries: int  # distinct queries; one pass of the timed loop

    def params(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "n": 1 << self.log2_n,
            "points": self.points,
            "queries": self.queries,
            "semigroup": self.semigroup,
            "num_queries": self.num_queries,
        }


# Sizes keep one pass of the query list well under the run length on 2
# cores, with at least 200 distinct queries so that 10 or more samples lie
# beyond p95.  More queries per run, not larger n, is what keeps the latency
# quantiles steady from seed to seed; n is therefore smaller than the largest
# size the structure handles.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "uniform-2d",
            "~90% of query time is idsstruct self time (candidate gather + _compress): deleting _compress and a sweep build must show here",
            d=2, k=1, log2_n=14, points="uniform", queries="uniform", semigroup="max", num_queries=1000,
        ),
        Workload(
            "uniform-3d-k2",
            "k=2: 4 pieces per query, ~0.03 dominance candidates per call, ~85% of cost is singletons: closing the coverage gap must show here",
            d=3, k=2, log2_n=11, points="uniform", queries="uniform", semigroup="or", num_queries=500,
        ),
        Workload(
            "clustered-idset",
            "two tight clusters under a uniform grid, ~700 singletons per query folded as id-sets: rank space and on-demand id-sets must show here",
            d=2, k=1, log2_n=14, points="clustered", queries="data-corners", semigroup="idset", num_queries=1200,
        ),
    )
}

SEMIGROUPS = {"max": MAX_REAL, "or": BIT_OR64, "idset": ID_SET}

# fractional parts of square roots of primes: Kronecker sequence directions
_ALPHA = np.modf(np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0])))[0]


@dataclass
class Inputs:
    workload: Workload
    points: WeightedPointSet
    weights: np.ndarray | None  # None for idset: its weights are the point ids
    queries: list
    sg: object


def _distinct_uniform(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    coords = rng.random((n, d))
    for j in range(d):
        while True:
            _, inverse, counts = np.unique(coords[:, j], return_inverse=True, return_counts=True)
            dup = counts[inverse] > 1
            if not dup.any():
                break
            coords[dup, j] = rng.random(int(dup.sum()))
    return coords


def _clustered(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Two Gaussian clusters (sigma 0.01) centred at 0.3 and 0.7 on every axis."""
    centre = np.where(rng.random(n) < 0.5, 0.3, 0.7)[:, None]
    coords = np.clip(centre + rng.normal(0.0, 0.01, (n, d)), 0.0, 1.0)
    for j in range(d):
        if np.unique(coords[:, j]).size != n:
            raise ValueError(f"clustered generator produced tied coordinates on axis {j}")
    return coords


def _kronecker(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    shift = rng.random(dims)
    i = np.arange(1, count + 1, dtype=np.float64)[:, None]
    return np.modf(shift + i * _ALPHA[:dims])[0]


def _queries(wl: Workload, coords: np.ndarray, rng: np.random.Generator, count: int) -> list:
    d, k = wl.d, wl.k
    u = _kronecker(rng, count, 2 * k + (d - k))
    if wl.queries == "data-corners":
        # every bound is a data coordinate, picked by rank so that the
        # corners follow the data's own distribution
        n = len(coords)
        sorted_axes = [np.sort(coords[:, j]) for j in range(d)]
        pick = np.minimum((u * n).astype(np.int64), n - 1)
        vals = np.empty_like(u)
        for c in range(u.shape[1]):
            axis = c // 2 if c < 2 * k else k + (c - 2 * k)
            vals[:, c] = sorted_axes[axis][pick[:, c]]
    else:
        vals = u
    out = []
    for row in vals:
        lo, hi = [], []
        for j in range(k):
            a, b = sorted((float(row[2 * j]), float(row[2 * j + 1])))
            lo.append(a)
            hi.append(b)
        for j in range(d - k):
            lo.append(NEG_INF)
            hi.append(float(row[2 * k + j]))
        out.append(Box(tuple(lo), tuple(hi)))
    return out


def make_inputs(wl: Workload, seed: int, *, log2_n: int | None = None, num_queries: int | None = None) -> Inputs:
    """Points, weights and queries of one workload; ``log2_n`` and
    ``num_queries`` override the workload's size (the smoke test runs tiny)."""
    n = 1 << (wl.log2_n if log2_n is None else log2_n)
    count = wl.num_queries if num_queries is None else num_queries
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(wl.name)])
    if wl.points == "clustered":
        coords = _clustered(rng, n, wl.d)
    else:
        coords = _distinct_uniform(rng, n, wl.d)
    points = WeightedPointSet(coords, np.arange(n, dtype=np.int64), np.ones(n))
    if wl.semigroup == "max":
        weights = rng.random(n)
    elif wl.semigroup == "or":
        weights = rng.integers(0, np.iinfo(np.uint64).max, n, dtype=np.uint64, endpoint=True)
    else:
        weights = None
    queries = _queries(wl, coords, rng, count)
    return Inputs(wl, points, weights, queries, SEMIGROUPS[wl.semigroup])


def oracle(inp: Inputs, q: Box):
    """Reference answer from the brute-force scan: sorted ids for idset,
    the semigroup value (None when empty) otherwise."""
    if inp.sg is ID_SET:
        return scan_ids(inp.points, q)
    return scan_value(inp.points, q, inp.sg, inp.weights)


def answer_matches(inp: Inputs, value, expected) -> bool:
    if inp.sg is ID_SET:
        got = np.empty(0, dtype=np.int64) if value is None else value
        return bool(np.array_equal(got, expected))
    if value is None or expected is None:
        return value is None and expected is None
    return bool(inp.sg.equal(value, expected))
