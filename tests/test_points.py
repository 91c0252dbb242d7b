import itertools

import numpy as np
import pytest

import idemrange as ir
from idemrange import points as P
from idemrange.points import radical_inverse


def test_hammersley_small_example():
    ps = ir.hammersley_wd(4, 2)
    assert np.allclose(ps.coords[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(ps.coords[:, 1], [0.0, 0.5, 0.25, 0.75])  # base-2 radical inverses
    assert ps.ids.tolist() == [0, 1, 2, 3]


def test_radical_inverse_hand_values():
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75
    assert radical_inverse(5, 3) == pytest.approx(2 / 3 + 1 / 9)


def test_hammersley_single_point_3d():
    ps = ir.hammersley_wd(1, 3)
    assert len(ps) == 1 and ps.d == 3
    assert np.all((ps.coords >= 0) & (ps.coords <= 1))


def test_hammersley_distinct_and_deterministic():
    a = ir.hammersley_wd(200, 4)
    b = ir.hammersley_wd(200, 4)
    assert np.array_equal(a.coords, b.coords)
    for j in range(4):
        assert np.unique(a.coords[:, j]).size == 200


def test_hammersley_columns_distinct_by_construction():
    """At n = 2^20, d = 6 every column is strictly distinct in [0, 1), the
    first axis is (i + 0.5)/n and each radical column's smallest gap is at
    least 1/(b*n) for its base b.  A radical column does not depend on n,
    so every smaller n is covered as well."""
    n = 2**20
    coords = ir.hammersley_wd(n, 6).coords
    assert np.array_equal(coords[:, 0], (np.arange(n) + 0.5) / n)
    for j in range(6):
        col = np.sort(coords[:, j])
        assert col[0] >= 0.0 and col[-1] < 1.0
        gap = np.diff(col).min()
        assert gap > 0
        if j:
            assert gap >= 1 / (P._PRIMES[j - 1] * n)


def test_hammersley_d_guard():
    with pytest.raises(ir.Unsupported):
        ir.hammersley_wd(10, 7)


def test_uniform_random_deterministic_and_seed_sensitive():
    a = ir.uniform_random(2, 2, seed=7)
    b = ir.uniform_random(2, 2, seed=7)
    assert np.array_equal(a.coords, b.coords)
    big = ir.uniform_random(1000, 2, seed=1)
    assert np.all((big.coords >= 0) & (big.coords <= 1))
    other = ir.uniform_random(1000, 2, seed=2)
    assert not np.array_equal(big.coords, other.coords)


def test_uniform_random_resamples_collisions(monkeypatch):
    """Draws on a 1/32 grid collide often: every column still ends with
    distinct values, the same ones for the same seed."""
    real = np.random.default_rng

    class Coarse:
        def __init__(self, seed):
            self.g = real(seed)

        def random(self, size=None):
            return np.floor(self.g.random(size) * 32) / 32

    monkeypatch.setattr(P.np.random, "default_rng", Coarse)
    for seed in range(8):
        first = Coarse(seed).random((20, 3))
        got = ir.uniform_random(20, 3, seed).coords
        assert all(np.unique(first[:, j]).size < 20 for j in range(3))  # the first draw collides
        assert all(np.unique(got[:, j]).size == 20 for j in range(3))
        assert np.array_equal(got, ir.uniform_random(20, 3, seed).coords)


# -- well-distribution checker ------------------------------------------------


def _brute_min_ratio(coords):
    """Independent oracle: full anchored-rectangle enumeration, plain loops."""
    n, d = coords.shape
    axes = [sorted(set(coords[:, j])) for j in range(d)]
    pairs = [
        [(lo, hi) for i, lo in enumerate(vals) for hi in vals[i:]] for vals in axes
    ]
    best = np.inf
    for combo in itertools.product(*pairs):
        lo = np.array([c[0] for c in combo])
        hi = np.array([c[1] for c in combo])
        k = int(np.sum(np.all((coords >= lo) & (coords <= hi), axis=1)))
        if k >= 2:
            best = min(best, float(np.prod(hi - lo)) * n / k)
    return best


@pytest.mark.parametrize("n,d", [(300, 2), (P._PREFIX_MAX_N + 500, 2), (300, 3), (40, 1)])
def test_rect_counter_matches_brute_count(n, d):
    """Closed-box counts equal a brute count, on the prefix-matrix path (small
    2-D sets) and the ``box_sums`` path (larger 2-D sets and other d)."""
    rng = np.random.default_rng(n + d)
    coords = rng.random((n, d))
    coords[: n // 4] = rng.integers(0, 9, (n // 4, d)) / 8  # ties, and points on box faces
    faces = np.sort(rng.random((2, 300, d)), axis=0)
    faces[:, :100] = np.sort(coords[rng.integers(0, n, (2, 100)), :], axis=0)  # faces through points
    lo, hi = faces
    counter = P._RectCounter(coords)
    assert (counter.prefix is None) == (d != 2 or n > P._PREFIX_MAX_N)
    want = [np.count_nonzero(np.all((coords >= a) & (coords <= b), axis=1)) for a, b in zip(lo, hi)]
    got = counter.counts(lo, hi)
    assert got.dtype == np.int64 and got.tolist() == want


def test_checker_degenerate_pair_fails_any_eps():
    ps = ir.WeightedPointSet(np.array([[0.2, 0.5], [0.8, 0.5]]), np.arange(2), np.ones(2))
    rep = ir.check_well_distributed(ps, eps=1e-9, mode="exact")
    assert rep.epsilon_observed == 0.0
    assert not rep.passed


def test_checker_two_point_hand_value():
    ps = ir.WeightedPointSet(np.array([[0.1, 0.1], [0.9, 0.9]]), np.arange(2), np.ones(2))
    rep = ir.check_well_distributed(ps, eps=0.5, mode="exact")
    # min enclosing rectangle: 0.8 * 0.8 * 2 / 2 = 0.64
    assert rep.epsilon_observed == pytest.approx(0.64)
    assert rep.passed and rep.iii_ok


def test_checker_matches_brute_oracle():
    rng = np.random.default_rng(3)
    for trial in range(8):
        n = int(rng.integers(3, 9))
        ps = ir.uniform_random(n, 2, seed=int(rng.integers(10**6)))
        rep = ir.check_well_distributed(ps, eps=0.01, mode="exact")
        assert rep.epsilon_observed == pytest.approx(_brute_min_ratio(ps.coords))


def test_checker_matches_brute_oracle_3d():
    ps = ir.uniform_random(6, 3, seed=11)
    rep = ir.check_well_distributed(ps, eps=0.01, mode="exact")
    assert rep.epsilon_observed == pytest.approx(_brute_min_ratio(ps.coords))


def test_hammersley_exact_passes_small_sizes():
    for n in (16, 64):
        rep = ir.check_well_distributed(ir.hammersley_wd(n, 2), eps=0.05, mode="exact")
        assert rep.passed, f"n={n}: eps_observed={rep.epsilon_observed}"
        assert rep.epsilon_observed > 0


def test_hammersley_exact_256():
    # the documented guard needs an explicit raise of the candidate cap here;
    # the binding pair straddles the index-128 carry boundary (points 126/129),
    # so the true constant at n=256 is (3/256)^2 * 256/2
    rep = ir.check_well_distributed(
        ir.hammersley_wd(256, 2), eps=0.017, mode="exact", max_candidates=10**10
    )
    assert rep.passed
    assert rep.epsilon_observed == pytest.approx(9 / 512)


def test_exact_guard_too_large():
    with pytest.raises(ir.TooLarge):
        ir.check_well_distributed(ir.hammersley_wd(256, 2), eps=0.05, mode="exact")


def test_sampled_mode_runs_and_reports():
    ps = ir.hammersley_wd(512, 2)
    rep = ir.check_well_distributed(ps, eps=0.05, mode="sampled", samples=20_000, seed=4)
    assert rep.mode == "sampled"
    assert rep.epsilon_observed > 0
    assert rep.worst_rectangle is not None


def test_sampled_mode_refutes_clumped_set():
    # two near-coincident points: sampled mode should find a tiny rectangle
    coords = np.vstack([np.random.default_rng(0).random((30, 2)), [[0.5, 0.5], [0.5001, 0.50001]]])
    ps = ir.WeightedPointSet(coords, np.arange(len(coords)), np.ones(len(coords)))
    rep = ir.check_well_distributed(ps, eps=0.05, mode="sampled", samples=50_000, seed=1)
    assert not rep.passed


def test_property_iii_follows_from_ii():
    # cross-validation: whenever (ii) holds at the requested eps, (iii) holds too
    for seed in range(5):
        ps = ir.uniform_random(12, 2, seed=seed)
        rep = ir.check_well_distributed(ps, eps=1e-9, mode="exact")
        assert rep.iii_ok
        at_eps = ir.check_well_distributed(ps, eps=rep.epsilon_observed, mode="exact")
        assert at_eps.passed and at_eps.iii_ok


def test_point_set_arrays_read_only():
    ps = ir.hammersley_wd(8, 2)
    with pytest.raises(ValueError):
        ps.coords[0, 0] = 0.5


def test_point_set_roundtrip(tmp_path):
    ps = ir.hammersley_wd(12, 3)
    path = tmp_path / "pts.txt"
    ir.save_point_set(ps, path)
    back = ir.load_point_set(path)
    assert np.array_equal(back.coords, ps.coords)
    assert np.array_equal(back.ids, ps.ids)
    header = path.read_text().splitlines()[0]
    assert header == "# d=3 n=12"


@pytest.mark.parametrize(
    "name, text, match",
    [
        pytest.param("pts.txt", "# d=2\n0.1 0.2 0\n", r"header needs n=", id="no-n"),
        pytest.param("pts.txt", "# d=2 n=two\n", r"header needs n=", id="n-not-integer"),
        pytest.param("pts.txt", "# points\n", r"header needs d=", id="bare-header"),
        pytest.param("pts.txt", "# d=2 n=3\n0.1 0.2 0\n0.3 0.4 1\n", r"ends after 2 of its n=3 points", id="short"),
        pytest.param("pts.txt", "# d=2 n=2\n0.1 0.2 0\n0.3 0.4\n", r"line 3: expected 2 coordinates", id="no-id"),
        pytest.param("pts.txt", "# d=2 n=1\n0.1 zero 0\n", r"line 2: not numbers", id="not-numbers"),
        pytest.param("pts.txt", "# d=2 n=99999999999999\n0.1 0.2 0\n", r"ends after 1 of its n=99999999999999", id="huge-n"),
        pytest.param("manifest", "2 1 2\n", r"cwd manifest line must be four integers", id="manifest-short"),
        pytest.param("manifest", "2 1 2 eight\n", r"cwd manifest line must be four integers", id="manifest-word"),
        pytest.param("manifest", "0 1 2 4\n", r"cwd manifest .* must be positive", id="manifest-h0"),
        pytest.param("manifest", "2 -1 2 4\n", r"cwd manifest .* must be positive", id="manifest-negative-k"),
    ],
)
def test_malformed_files_fail_naming_the_problem(tmp_path, name, text, match):
    """A malformed point-set file or cwd manifest raises the package's
    ValueError, naming the header field or line at fault."""
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=match):
        ir.load_cwd(tmp_path) if name == "manifest" else ir.load_point_set(tmp_path / name)
