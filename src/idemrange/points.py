"""Point sets in the unit cube: generators and the well-distribution checker.

A set is well-distributed when every axis-aligned rectangle holding k >= 2
points has volume at least eps*k/n, and dually a rectangle of volume v holds
at most ceil(v*n/eps) points.  The dimension constant eps is never assumed:
the checker measures the binding value over an anchored rectangle family.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, Unsupported
from .geometry import Box
from .rangetree import box_sums
from .semigroup import MAX_REAL

__all__ = [
    "WeightedPointSet",
    "WdReport",
    "hammersley_wd",
    "uniform_random",
    "check_well_distributed",
    "radical_inverse",
    "write_point_set",
    "save_point_set",
    "load_point_set",
]

_PRIMES = (2, 3, 5, 7, 11)
_MAX_DIM = 6


@dataclass(frozen=True)
class WeightedPointSet:
    """Points with unique ids and semigroup weights (floats).

    Coordinates usually lie in [0,1]^d; any other value, +-inf included, is
    an ordinary point outside the unit cube.  NaN is rejected.
    """

    coords: np.ndarray  # (n, d)
    ids: np.ndarray  # (n,)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=np.float64))
        ids = np.asarray(self.ids, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if coords.shape[0] != ids.shape[0] or ids.shape[0] != weights.shape[0]:
            raise ValueError("coords, ids, weights lengths differ")
        if ids.size and np.unique(ids).size != ids.size:
            raise ValueError("point ids must be unique")
        if np.isnan(coords).any():
            raise ValueError("point coordinates must not be NaN")
        for arr, name in ((coords, "coords"), (ids, "ids"), (weights, "weights")):
            arr.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]

    def subset(self, index) -> "WeightedPointSet":
        return WeightedPointSet(self.coords[index], self.ids[index], self.weights[index])

    def with_weights(self, weights) -> "WeightedPointSet":
        return WeightedPointSet(self.coords, self.ids, np.asarray(weights, dtype=np.float64))


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in the given base."""
    inv, f = 0.0, 1.0 / base
    while index > 0:
        inv += (index % base) * f
        index //= base
        f /= base
    return inv


def _radical_inverse_array(indices: np.ndarray, base: int) -> np.ndarray:
    idx = indices.astype(np.int64).copy()
    out = np.zeros(idx.shape, dtype=np.float64)
    f = 1.0 / base
    while np.any(idx > 0):
        out += (idx % base) * f
        idx //= base
        f /= base
    return out


def _force_distinct(col: np.ndarray, step: float) -> np.ndarray:
    # vdC columns are injective over indices; this only fires on rounding ties.
    while True:
        _, inverse, counts = np.unique(col, return_inverse=True, return_counts=True)
        if counts.max(initial=1) <= 1:
            return col
        col = col.copy()
        seen: dict[int, int] = {}
        for i, g in enumerate(inverse):
            r = seen.get(g, 0)
            seen[g] = r + 1
            if r:
                col[i] = min(1.0, col[i] + r * step)


def hammersley_wd(n: int, d: int) -> WeightedPointSet:
    """Deterministic Hammersley set: first axis (i+0.5)/n, rest radical inverses.

    Empirically well-distributed; the measured epsilon is whatever the
    checker reports, nothing is assumed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= d <= _MAX_DIM:
        raise Unsupported(f"d={d} outside supported range 1..{_MAX_DIM}")
    idx = np.arange(n, dtype=np.int64)
    cols = [(idx + 0.5) / n]
    for j in range(1, d):
        base = _PRIMES[j - 1]
        col = _radical_inverse_array(idx, base)
        cols.append(_force_distinct(col, 0.5 / n / base))
    coords = np.column_stack(cols)
    return WeightedPointSet(coords, idx, np.ones(n))


def uniform_random(n: int, d: int, seed: int) -> WeightedPointSet:
    """Uniform iid points; per-dimension collisions resampled; deterministic."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, d))
    for j in range(d):
        while True:
            _, inverse, counts = np.unique(coords[:, j], return_inverse=True, return_counts=True)
            dup = counts[inverse] > 1
            if not dup.any():
                break
            coords[dup, j] = rng.random(int(dup.sum()))  # resample just the colliders
    return WeightedPointSet(coords, np.arange(n, dtype=np.int64), np.ones(n))


@dataclass(frozen=True)
class WdReport:
    """Outcome of a well-distribution check.

    epsilon_observed is the binding constant of property (ii) over the
    examined rectangles (inf when no rectangle held two points).  Sampled
    mode can only certify failure, never the universal property.
    """

    passed: bool
    epsilon_observed: float
    worst_rectangle: Box | None
    mode: str
    iii_ok: bool


def _ceil_count_bound(vol: float, n: int, eps: float) -> int:
    return int(math.ceil(vol * n / eps - 1e-12))


def _exact_scan_2d(xs, ys, n, eps):
    best = np.inf
    rect = (0.0, 0.0, 0.0, 0.0)
    iii_ok = True
    for i in range(n):
        ybuf: list[float] = []
        for j in range(i, n):
            bisect.insort_left(ybuf, ys[j])  # keep slab ys sorted as the x-window grows
            m = len(ybuf)
            if m < 2:
                continue
            arr = np.asarray(ybuf)
            w = xs[j] - xs[i]
            diff = arr[None, :] - arr[:, None]  # diff[a, b] = y_b - y_a
            ks = np.arange(m)[None, :] - np.arange(m)[:, None] + 1
            valid = ks >= 2
            ratios = np.where(valid, w * diff * n / np.maximum(ks, 2), np.inf)
            amin = int(np.argmin(ratios))
            a, b = divmod(amin, m)
            if ratios[a, b] < best:
                best = float(ratios[a, b])
                rect = (float(xs[i]), float(xs[j]), float(arr[a]), float(arr[b]))
            bounds = np.ceil(w * diff * n / eps - 1e-12)
            if np.any(valid & (ks > bounds)):
                iii_ok = False
    return best, rect, iii_ok


def _exact_2d(coords: np.ndarray, eps: float) -> tuple[float, Box | None, bool]:
    order = np.argsort(coords[:, 0], kind="stable")
    xs = coords[order, 0].copy()
    ys = coords[order, 1].copy()
    best, rect, iii_ok = _exact_scan_2d(xs, ys, len(xs), eps)
    worst = None
    if np.isfinite(best):
        worst = Box((rect[0], rect[2]), (rect[1], rect[3]))
    return float(best), worst, iii_ok


def _exact_nd(coords: np.ndarray, eps: float) -> tuple[float, Box | None, bool]:
    # generic fallback: anchored pairs in every dimension, exhaustive count
    import itertools

    n, d = coords.shape
    axes = [np.sort(np.unique(coords[:, j])) for j in range(d)]
    pair_lists = [
        [(lo, hi) for ai, lo in enumerate(vals) for hi in vals[ai:]] for vals in axes
    ]
    best = np.inf
    worst = None
    iii_ok = True
    for combo in itertools.product(*pair_lists):
        lo = np.array([c[0] for c in combo])
        hi = np.array([c[1] for c in combo])
        inside = np.all((coords >= lo) & (coords <= hi), axis=1)
        k = int(inside.sum())
        if k < 2:
            continue
        vol = float(np.prod(hi - lo))
        ratio = vol * n / k
        if ratio < best:
            best = ratio
            worst = Box(tuple(lo), tuple(hi))
        if k > _ceil_count_bound(vol, n, eps):
            iii_ok = False
    return float(best), worst, iii_ok


# a 2-D set of at most this many points is counted from an (n+1)^2 rank-prefix
# matrix; above about 3,000 points ``box_sums`` counts 10^5 boxes faster
_PREFIX_MAX_N = 3072


class _RectCounter:
    """Exact closed-box point counts: a rank-grid prefix matrix for small 2-D
    sets, else the counts of one ``rangetree.box_sums`` call."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        n, d = coords.shape
        self.prefix = None
        if d == 2 and n <= _PREFIX_MAX_N:
            self.xs = np.sort(coords[:, 0])
            self.ys = np.sort(coords[:, 1])
            rx = np.argsort(np.argsort(coords[:, 0], kind="stable"), kind="stable")
            ry = np.argsort(np.argsort(coords[:, 1], kind="stable"), kind="stable")
            grid = np.zeros((n + 1, n + 1), dtype=np.int32)
            np.add.at(grid, (rx + 1, ry + 1), 1)
            np.cumsum(grid, axis=0, out=grid)  # in place: one (n+1)^2 matrix is held
            self.prefix = np.cumsum(grid, axis=1, out=grid)

    def counts(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        if self.prefix is None:
            return box_sums(self.coords, np.zeros(len(self.coords)), MAX_REAL, lo, hi)[0]
        ix0 = np.searchsorted(self.xs, lo[:, 0], side="left")
        ix1 = np.searchsorted(self.xs, hi[:, 0], side="right")
        iy0 = np.searchsorted(self.ys, lo[:, 1], side="left")
        iy1 = np.searchsorted(self.ys, hi[:, 1], side="right")
        p = self.prefix
        return (p[ix1, iy1] - p[ix0, iy1] - p[ix1, iy0] + p[ix0, iy0]).astype(np.int64)


def _sampled(coords: np.ndarray, eps: float, samples: int, seed: int):
    n, d = coords.shape
    rng = np.random.default_rng(seed)
    corners = rng.random((samples, d, 2))
    lo = corners.min(axis=2)
    hi = corners.max(axis=2)
    counts = _RectCounter(coords).counts(lo, hi)
    vols = np.prod(hi - lo, axis=1)
    multi = counts >= 2
    iii_ok = True
    if np.any(multi):
        ratios = vols[multi] * n / counts[multi]
        w = int(np.argmin(ratios))
        best = float(ratios[w])
        widx = np.nonzero(multi)[0][w]
        worst = Box(tuple(lo[widx]), tuple(hi[widx]))
        bounds = np.ceil(vols[multi] * n / eps - 1e-12)
        iii_ok = bool(np.all(counts[multi] <= bounds))
    else:
        best, worst = np.inf, None
    return best, worst, iii_ok


def check_well_distributed(
    points: WeightedPointSet,
    eps: float,
    mode: str = "exact",
    *,
    samples: int = 100_000,
    seed: int = 0,
    max_candidates: int = 10**9,
) -> WdReport:
    """Measure the well-distribution constant of a point set.

    Exact mode enumerates every rectangle whose facets pass through point
    coordinates (any violating rectangle shrinks to an anchored one without
    losing points), so the reported epsilon is the true binding constant.
    Guarded by ``max_candidates`` against n**(2d) blowup.  Sampled mode
    draws ``samples`` uniform-corner rectangles: it can refute, not certify.
    """
    n, d = len(points), points.d
    if n < 2:
        raise ValueError("need at least 2 points")
    mode = mode.lower()
    if mode == "exact":
        if n ** (2 * d) > max_candidates:
            raise TooLarge(f"exact mode needs n^(2d) = {n ** (2 * d)} <= {max_candidates}")
        if d == 2:
            best, worst, iii_ok = _exact_2d(points.coords, eps)
        else:
            best, worst, iii_ok = _exact_nd(points.coords, eps)
    elif mode == "sampled":
        best, worst, iii_ok = _sampled(points.coords, eps, samples, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return WdReport(
        passed=bool(best >= eps and iii_ok),
        epsilon_observed=float(best),
        worst_rectangle=worst,
        mode=mode,
        iii_ok=iii_ok,
    )


def write_point_set(points: WeightedPointSet, fh) -> None:
    """Text format, to the open text stream ``fh``: header '# d=<d> n=<n>',
    then 'c1 .. cd id' per line, each coordinate as its ``repr``."""
    fh.write(f"# d={points.d} n={len(points)}\n")
    for row, pid in zip(points.coords, points.ids):
        fh.write(" ".join(repr(float(c)) for c in row) + f" {int(pid)}\n")


def save_point_set(points: WeightedPointSet, path) -> None:
    """``write_point_set`` to the file ``path``."""
    with open(path, "w") as fh:
        write_point_set(points, fh)


def load_point_set(path) -> WeightedPointSet:
    """Read ``save_point_set``'s format.  A malformed file raises
    ``ValueError`` naming the header field or the line at fault."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("#"):
            raise ValueError("missing point-set header")
        fields = dict(tok.partition("=")[::2] for tok in header[1:].split())
        for key in ("d", "n"):
            if not fields.get(key, "").isdecimal():
                raise ValueError(f"point-set header needs {key}=<non-negative integer>, got {header!r}")
        d, n = int(fields["d"]), int(fields["n"])
        coords = np.empty((n, d))
        ids = np.empty(n, dtype=np.int64)
        for i in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"point-set file ends after {i} of its n={n} points")
            parts = line.split()
            if len(parts) != d + 1:
                raise ValueError(f"point-set line {i + 2}: expected {d} coordinates and an id, got {line.strip()!r}")
            try:
                coords[i] = [float(x) for x in parts[:d]]
                ids[i] = int(parts[d])
            except ValueError:
                raise ValueError(f"point-set line {i + 2}: not numbers: {line.strip()!r}") from None
    return WeightedPointSet(coords, ids, np.ones(n))
