"""Collectively well-distributed families via projection from d+k dimensions.

A base Hammersley set in [0,1]^(d+k) is sliced into h equal slabs along each
of the last k axes; the cell contents projected to the first d coordinates
give the family sets P_I, I in {1..h}^k.  One stable sort on each base
point's raveled slab tuple groups the points by cell, and every set is a
slice of the sorted arrays, so the build makes no pass per index.  Unions
over contiguous index boxes inherit well-distribution from the base set;
non-contiguous unions carry no guarantee and are not checked.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, Unsupported
from .points import (
    WeightedPointSet,
    WdReport,
    check_well_distributed,
    hammersley_wd,
    load_point_set,
    save_point_set,
)

__all__ = ["CwdFamily", "CwdReport", "build_cwd_family", "family_union", "verify_cwd", "save_cwd", "load_cwd"]


@dataclass(frozen=True)
class CwdFamily:
    h: int
    k: int
    d: int
    cell_size: int  # requested per-cell count N
    sets: dict  # index tuple in {1..h}^k -> WeightedPointSet

    def total_points(self) -> int:
        return sum(len(ps) for ps in self.sets.values())


def build_cwd_family(N: int, h: int, k: int, d: int) -> CwdFamily:
    """Slice-and-project construction; base set size is exactly N * h**k."""
    if k > 3:
        raise Unsupported("k must be <= 3")
    if d + k > 6:
        raise Unsupported("d + k must be <= 6")
    base_n = N * h**k
    if base_n > 10**7:
        raise TooLarge(f"N * h^k = {base_n} exceeds 1e7")
    base = hammersley_wd(base_n, d + k)
    # half-open slabs [l/h, (l+1)/h), last one closed; a point's cell is its
    # slab tuple raveled, so cells ascend in itertools.product order
    slab = np.minimum((base.coords[:, d:] * h).astype(np.int64), h - 1)
    cell = np.ravel_multi_index(tuple(slab.T), (h,) * k).astype(np.min_scalar_type(h**k - 1))
    order = np.argsort(cell, kind="stable")  # a small integer key: radix sort, base order within a cell
    ends = np.cumsum(np.bincount(cell, minlength=h**k)).tolist()
    coords, ids, weights = base.coords[order, :d], base.ids[order], base.weights[order]
    cells = itertools.product(range(1, h + 1), repeat=k)
    # slices of the checked base set: nothing to check again
    trusted = WeightedPointSet._from_checked
    sets = {idx: trusted(coords[a:b], ids[a:b], weights[a:b]) for idx, a, b in zip(cells, [0, *ends], ends)}
    return CwdFamily(h=h, k=k, d=d, cell_size=N, sets=sets)


def family_union(fam: CwdFamily, ranges) -> WeightedPointSet:
    """Disjoint union of the sets over a contiguous index box (1-based, closed)."""
    ranges = [tuple(r) for r in ranges]
    if len(ranges) != fam.k:
        raise ValueError(f"expected {fam.k} ranges")
    for i, j in ranges:
        if not 1 <= i <= j <= fam.h:
            raise ValueError(f"range ({i}, {j}) outside 1..{fam.h}")
    members = [
        fam.sets[idx]
        for idx in itertools.product(*[range(i, j + 1) for i, j in ranges])
    ]
    coords = np.concatenate([ps.coords for ps in members])
    ids = np.concatenate([ps.ids for ps in members])
    weights = np.concatenate([ps.weights for ps in members])
    return WeightedPointSet(coords, ids, weights)


@dataclass(frozen=True)
class CwdReport:
    all_passed: bool
    worst_epsilon: float
    reports: dict  # ranges tuple -> WdReport


def verify_cwd(fam: CwdFamily, eps: float, mode: str = "sampled", *, samples: int = 100_000, seed: int = 0) -> CwdReport:
    """Check every contiguous union; aggregates the binding epsilon."""
    per_dim = [(i, j) for i in range(1, fam.h + 1) for j in range(i, fam.h + 1)]
    total = len(per_dim) ** fam.k
    if total > 10**4:
        raise TooLarge(f"{total} contiguous unions exceed the 1e4 guard")
    reports = {}
    worst = np.inf
    ok = True
    for combo in itertools.product(per_dim, repeat=fam.k):
        union = family_union(fam, combo)
        rep = check_well_distributed(union, eps, mode, samples=samples, seed=seed)
        reports[combo] = rep
        worst = min(worst, rep.epsilon_observed)
        ok = ok and rep.passed
    return CwdReport(all_passed=ok, worst_epsilon=float(worst), reports=reports)


def save_cwd(fam: CwdFamily, dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "manifest"), "w") as fh:
        fh.write(f"{fam.h} {fam.k} {fam.d} {fam.cell_size}\n")
    for idx, ps in fam.sets.items():
        name = "set_" + "_".join(str(i) for i in idx) + ".txt"
        save_point_set(ps, os.path.join(dirpath, name))


def load_cwd(dirpath) -> CwdFamily:
    """Read ``save_cwd``'s directory.  A malformed manifest, or a set file
    whose dimension is not the manifest's, raises ``ValueError`` naming it."""
    manifest = os.path.join(dirpath, "manifest")
    with open(manifest) as fh:
        line = fh.readline()
    try:
        h, k, d, N = (int(x) for x in line.split())
    except ValueError:
        raise ValueError(f"cwd manifest line must be four integers 'h k d N', got {line.strip()!r}") from None
    if min(h, k, d, N) < 1:
        raise ValueError(f"cwd manifest {manifest}: h, k, d and N must be positive, got {line.strip()!r}")
    sets = {}
    for idx in itertools.product(range(1, h + 1), repeat=k):
        path = os.path.join(dirpath, "set_" + "_".join(str(i) for i in idx) + ".txt")
        ps = load_point_set(path)
        if ps.d != d:
            raise ValueError(f"cwd set file {path} has d={ps.d}, its manifest says d={d}")
        sets[idx] = ps
    return CwdFamily(h=h, k=k, d=d, cell_size=N, sets=sets)
