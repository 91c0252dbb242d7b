import itertools

import numpy as np
import pytest

import idemrange as ir


def test_build_counts_1d():
    fam = ir.build_cwd_family(N=64, h=2, k=1, d=1)
    assert sorted(fam.sets) == [(1,), (2,)]
    for idx in fam.sets:
        assert abs(len(fam.sets[idx]) - 64) <= 16


@pytest.mark.parametrize(
    "N, h, k, d, empty", [(64, 2, 1, 1, 0), (3, 5, 1, 3, 0), (1, 15, 2, 2, 45), (2, 3, 2, 3, 0), (1, 4, 3, 2, 17)]
)
def test_build_matches_mask_definition(N, h, k, d, empty):
    """Each set holds the base points whose slab tuple is its index, in
    base order, projected to the first d coordinates; empty cells stay."""
    fam = ir.build_cwd_family(N, h, k, d)
    base = ir.hammersley_wd(N * h**k, d + k)
    slab = np.minimum((base.coords[:, d:] * h).astype(np.int64), h - 1) + 1
    assert list(fam.sets) == list(itertools.product(range(1, h + 1), repeat=k))
    for idx, ps in fam.sets.items():
        mask = np.all(slab == idx, axis=1)
        assert np.array_equal(ps.coords, base.coords[mask, :d])
        assert np.array_equal(ps.ids, base.ids[mask])
        assert np.array_equal(ps.weights, base.weights[mask])
    assert sum(len(ps) == 0 for ps in fam.sets.values()) == empty
    assert fam.total_points() == N * h**k


def test_build_single_cell_is_whole_projection():
    fam = ir.build_cwd_family(N=1, h=1, k=1, d=2)
    base = ir.hammersley_wd(1, 3)
    assert np.array_equal(fam.sets[(1,)].coords, base.coords[:, :2])


def test_union_of_middle_cells_well_distributed():
    fam = ir.build_cwd_family(N=64, h=4, k=1, d=2)
    union = ir.family_union(fam, [(2, 3)])
    rep = ir.check_well_distributed(union, eps=1e-6, mode="exact")
    assert rep.passed
    assert rep.epsilon_observed > 0


def test_family_union_counts():
    fam = ir.build_cwd_family(N=32, h=4, k=1, d=2)
    full = ir.family_union(fam, [(1, 4)])
    assert len(full) == fam.total_points() == 32 * 4
    single = ir.family_union(fam, [(2, 2)])
    assert np.array_equal(single.coords, fam.sets[(2,)].coords)
    two = ir.family_union(fam, [(2, 3)])
    assert len(two) == len(fam.sets[(2,)]) + len(fam.sets[(3,)])


def test_family_union_range_validation():
    fam = ir.build_cwd_family(N=8, h=2, k=1, d=2)
    with pytest.raises(ValueError):
        ir.family_union(fam, [(0, 2)])
    with pytest.raises(ValueError):
        ir.family_union(fam, [(2, 1)])


def test_ids_globally_unique_and_partitioned():
    fam = ir.build_cwd_family(N=16, h=3, k=2, d=2)
    all_ids = np.concatenate([ps.ids for ps in fam.sets.values()])
    assert np.unique(all_ids).size == all_ids.size == fam.total_points() == 16 * 9


def test_cell_sizes_within_factor_four():
    for N, h, k, d in ((64, 4, 1, 2), (64, 8, 1, 2), (16, 3, 2, 2)):
        fam = ir.build_cwd_family(N, h, k, d)
        for idx, ps in fam.sets.items():
            assert N / 4 <= len(ps) <= 4 * N, (N, h, k, d, idx, len(ps))


def test_verify_cwd_union_count_h2():
    fam = ir.build_cwd_family(N=32, h=2, k=1, d=2)
    rep = ir.verify_cwd(fam, eps=1e-6, mode="sampled", samples=2000)
    assert len(rep.reports) == 3  # h(h+1)/2


def test_verify_cwd_guard():
    fam = ir.build_cwd_family(N=1, h=15, k=2, d=2)  # 120^2 unions > 1e4
    with pytest.raises(ir.TooLarge):
        ir.verify_cwd(fam, eps=0.01, mode="sampled", samples=100)


def test_noncontiguous_union_not_part_of_guarantee():
    fam = ir.build_cwd_family(N=32, h=4, k=1, d=2)
    rep = ir.verify_cwd(fam, eps=1e-9, mode="sampled", samples=1000)
    assert all(len(c) == 1 and c[0][0] <= c[0][1] for c in rep.reports)  # contiguous only


def test_build_guards():
    with pytest.raises(ir.TooLarge):
        ir.build_cwd_family(N=10**7, h=4, k=1, d=2)
    with pytest.raises(ir.Unsupported):
        ir.build_cwd_family(N=4, h=2, k=4, d=2)
    with pytest.raises(ir.Unsupported):
        ir.build_cwd_family(N=4, h=2, k=3, d=4)


def test_cwd_serialization_roundtrip(tmp_path):
    fam = ir.build_cwd_family(N=8, h=2, k=1, d=2)
    ir.save_cwd(fam, tmp_path / "fam")
    back = ir.load_cwd(tmp_path / "fam")
    assert back.h == fam.h and back.k == fam.k and back.d == fam.d
    for idx in fam.sets:
        assert np.array_equal(back.sets[idx].coords, fam.sets[idx].coords)
        assert np.array_equal(back.sets[idx].ids, fam.sets[idx].ids)
    manifest = (tmp_path / "fam" / "manifest").read_text().split()
    assert manifest == ["2", "1", "2", "8"]


def test_family_sets_trust_the_checked_base(monkeypatch, tmp_path):
    """Only the base set is checked: each family set is a slice of it, with
    the checked constructor's dtypes, shape and read-only arrays.  Sets from
    outside, a union's and a loaded family's, are still checked."""
    checks = []
    real = ir.WeightedPointSet.__post_init__
    monkeypatch.setattr(ir.WeightedPointSet, "__post_init__", lambda self: checks.append(len(self.ids)) or real(self))
    fam = ir.build_cwd_family(N=16, h=3, k=2, d=2)
    assert checks == [16 * 9]  # the base set
    for ps in fam.sets.values():
        assert (ps.coords.dtype, ps.ids.dtype, ps.weights.dtype) == (np.float64, np.int64, np.float64)
        assert ps.coords.shape == (len(ps), 2)
        assert not any(a.flags.writeable for a in (ps.coords, ps.ids, ps.weights))
    ir.family_union(fam, [(1, 3), (1, 3)])
    assert checks[1:] == [16 * 9]
    ir.save_cwd(fam, tmp_path / "fam")
    path = tmp_path / "fam" / "set_1_2.txt"
    lines = path.read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + lines[1].split()[-1:])  # the first point's id again
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unique"):
        ir.load_cwd(tmp_path / "fam")
