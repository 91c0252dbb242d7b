import csv
import io
import subprocess
import sys

import numpy as np
import pytest

import idemrange as ir
from idemrange.cli import BENCH_COLUMNS, LBPROBE_COLUMNS, LBPROBE_DETAIL_LIMIT, main


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_gen_hammersley_matches_generator(tmp_path, capsys):
    out_file = tmp_path / "p.txt"
    code, _ = _run(["gen", "--kind", "hammersley", "--n", "4", "--d", "2", "--out", str(out_file)], capsys)
    assert code == 0
    ps = ir.load_point_set(out_file)
    assert np.allclose(ps.coords[:, 0], [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(ps.coords[:, 1], [0.0, 0.5, 0.25, 0.75])
    assert len(out_file.read_text().splitlines()) == 5  # header + 4 points


def test_gen_uniform_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(["gen", "--kind", "uniform", "--n", "10", "--d", "2", "--seed", "1", "--out", str(f1)], capsys)
    _run(["gen", "--kind", "uniform", "--n", "10", "--d", "2", "--seed", "1", "--out", str(f2)], capsys)
    assert f1.read_text() == f2.read_text()


@pytest.mark.parametrize("kind", ["hammersley", "uniform"])
def test_gen_stdout_equals_out_file(tmp_path, capsys, kind):
    argv = ["gen", "--kind", kind, "--n", "7", "--d", "3", "--seed", "5"]
    out_file = tmp_path / "p.txt"
    assert _run(argv + ["--out", str(out_file)], capsys) == (0, "")
    code, out = _run(argv, capsys)
    assert code == 0 and out.encode() == out_file.read_bytes()
    assert len(ir.load_point_set(out_file)) == 7


def test_gen_missing_n_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "idemrange.cli", "gen", "--kind", "hammersley", "--d", "2"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_bench_row_count_and_verified(capsys):
    code, out = _run(
        ["bench", "--n", "64", "--d", "2", "--k", "1", "--queries", "10", "--semigroup", "idset", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11  # 10 per-query rows + summary
    assert list(rows[0].keys()) == BENCH_COLUMNS
    for row in rows[:-1]:
        assert row["verified"] == "true"
        assert int(row["total_cost"]) == int(row["sums_used"]) + int(row["singletons_used"])
    summary = rows[-1]
    assert summary["query_id"] == "summary"
    assert summary["s_plus"] != ""
    assert float(summary["mean_cost"]) >= 0


@pytest.mark.parametrize("name", ["max", "or"])
def test_bench_verifies_every_semigroup(name, capsys):
    code, out = _run(
        ["bench", "--n", "64", "--d", "2", "--k", "1", "--queries", "10", "--semigroup", name, "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["verified"] for r in rows] == ["true"] * 11  # every query and the summary


# weights are non-negative, a non-empty or of random 63-bit masks is not 0, ids are >= 0
@pytest.mark.parametrize("name,wrong", [("max", -1.0), ("or", 0), ("idset", np.array([-1]))])
def test_bench_wrong_answer_exits_1(name, wrong, capsys, monkeypatch):
    monkeypatch.setattr(ir.IdsStructure, "query", lambda self, q, return_audit=False: ir.QueryAnswer(wrong, 0, 1))
    code, out = _run(
        ["bench", "--n", "64", "--d", "2", "--k", "1", "--queries", "5", "--semigroup", name, "--seed", "3"],
        capsys,
    )
    assert code == 1
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["verified"] for r in rows] == ["false"] * 6


def test_bench_deterministic_under_seed(capsys):
    args = ["bench", "--n", "64", "--d", "2", "--k", "1", "--queries", "5", "--seed", "9"]
    _, out1 = _run(args, capsys)
    _, out2 = _run(args, capsys)
    assert out1 == out2


def test_bench_hard_dist(capsys):
    code, out = _run(
        ["bench", "--n", "64", "--d", "2", "--k", "1", "--queries", "5", "--dist", "hard", "--seed", "2"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["verified"] == "true" for r in rows[:-1])


def test_bench_usage_errors(capsys):
    base = [sys.executable, "-m", "idemrange.cli", "bench", "--n", "32", "--queries", "2"]
    assert subprocess.run(base + ["--d", "2", "--k", "2"], capture_output=True).returncode == 2
    assert (
        subprocess.run(base + ["--d", "1", "--k", "0", "--dist", "hard"], capture_output=True).returncode
        == 2
    )
    assert (
        subprocess.run(base + ["--d", "3", "--k", "1", "--dist", "hard"], capture_output=True).returncode
        == 2
    )
    # arguments the package refuses: its own message, exit 2, and no CSV row
    bench = ["bench", "--n", "32", "--d", "2", "--k", "1", "--queries", "2"]
    for argv, message in [
        ([*bench, "--n", "2"], "need at least 4 points"),
        ([*bench, "--k", "0"], "need 1 <= k <= d-1"),
        ([*bench, "--d", "7"], "d + k must be <= 6"),
        ([*bench, "--d", "7", "--points", "hammersley"], "d=7 outside supported range"),
        ([*bench, "--queries", "-1"], "--queries must be >= 0"),
        (["gen", "--kind", "uniform", "--n", "0", "--d", "2"], "n must be >= 1"),
        (["gen", "--kind", "uniform", "--n", "5", "--d", "0"], "d must be >= 1"),
        (["lbprobe", "--n", "3", "--d", "2", "--samples", "5"], "need at least 4 points"),
        (["lbprobe", "--n", "64", "--d", "2", "--samples", "-1"], "--samples must be >= 0"),
    ]:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2 and message in err and out == "", argv
    code, out = _run(bench, capsys)  # in range: every answer verified
    assert code == 0 and out.splitlines()[-1].split(",")[9] == "true"


def test_lbprobe_rows_and_columns(capsys):
    code, out = _run(["lbprobe", "--n", "64", "--d", "2", "--samples", "50", "--seed", "4"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == LBPROBE_COLUMNS
    data = [r for r in rows if r["sample_id"] != "summary"]
    assert len(data) == 50
    for r in data:
        if r["skipped"] == "0" and r["min_cover"] != "":
            assert int(r["min_cover"]) <= int(r["struct_cost"])
    summaries = [r for r in rows if r["sample_id"] == "summary"]
    assert {r["j_probe"] for r in summaries} <= {"1", "4", "8"}


def test_lbprobe_rows_follow_seed_and_sample_id(capsys):
    """A row's draw depends on (seed, sample_id) only: a run above
    LBPROBE_DETAIL_LIMIT, which skips the per-row probes, lists the same
    queries as a small one."""
    keys = ["sample_id", "y", "ells", "defined_subproblems"]
    runs = []
    for samples in ("2", str(LBPROBE_DETAIL_LIMIT + 1)):
        code, out = _run(["lbprobe", "--n", "64", "--d", "2", "--samples", samples, "--seed", "4"], capsys)
        assert code == 0
        runs.append([[r[c] for c in keys] for r in csv.DictReader(io.StringIO(out)) if r["sample_id"] != "summary"])
    assert runs[0] == runs[1][:2]
    assert len(runs[1]) == LBPROBE_DETAIL_LIMIT + 1


def test_lbprobe_rates_large_sample(capsys):
    code, out = _run(["lbprobe", "--n", "256", "--d", "2", "--samples", "100000", "--seed", "5"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    h = ir.IdsConfig.for_input(256, 2, 1).h  # 8
    summaries = {r["j_probe"]: r for r in rows if r["sample_id"] == "summary"}
    for j in ("1", "4"):
        assert abs(float(summaries[j]["check_I_fail_rate"]) - int(j) / h) < 0.02
        assert abs(float(summaries[j]["check_II_cond_fail_rate"]) - 0.5) < 0.01
    # large runs skip the per-row cover probes
    data = [r for r in rows if r["sample_id"] != "summary"]
    assert all(r["skipped"] == "1" for r in data)
