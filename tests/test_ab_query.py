import argparse
import importlib
import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import idemrange
from idemrange import QueryAnswer

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_query", _ROOT / "scripts" / "ab_query.py")
ab_query = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_query)

TINY = ["--base", "HEAD", "--log2-n", "8", "--queries", "12", "--passes", "1"]
EQUAL = "answers, costs, audits and s_plus equal"


@pytest.fixture(autouse=True)
def _needs_git():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")


def _extra_singleton_when(monkeypatch, pred):
    """Make the working tree's query report one more singleton on the
    structures for which ``pred(struct)`` holds."""
    real = idemrange.query

    def query(struct, q, return_audit=False):
        ans, audit = real(struct, q, return_audit=True)
        if pred(struct):
            ans = QueryAnswer(ans.value, ans.sums_used, ans.singletons_used + 1)
        return (ans, audit) if return_audit else ans

    monkeypatch.setattr(idemrange, "query", query)


def _import_working_tree(rev, tmp):
    """A stand-in for ``ab_query.import_base``: the working tree's package,
    copied and imported as ``idemrange_base`` whatever ``rev`` is, so a run
    compares the working tree with itself, committed or not."""
    shutil.copytree(_ROOT / "src" / "idemrange", tmp / ab_query.BASE_PACKAGE, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp))
    for name in [m for m in sys.modules if m.partition(".")[0] == ab_query.BASE_PACKAGE]:
        del sys.modules[name]
    return importlib.import_module(ab_query.BASE_PACKAGE)


@pytest.mark.parametrize("workload", ["uniform-3d-k2", "clustered-idset"])
def test_tiny_run_against_head(workload, capsys):
    assert ab_query.main([*TINY, "--workload", workload, "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert EQUAL in out
    assert "ratio" in out


def test_calls_per_query_line(monkeypatch, capsys):
    """Each pair's timing block starts with both sides' Python calls per
    query; the same package on both sides makes the same calls."""
    monkeypatch.setattr(ab_query, "import_base", _import_working_tree)
    assert ab_query.main([*TINY, "--workload", "uniform-3d-k2", "uniform-2d", "--seed", "3"]) == 0
    lines = re.findall(r"^calls per query  base (\S+)  change (\S+)  ratio (\S+)$", capsys.readouterr().out, re.M)
    assert len(lines) == 2
    for base, change, ratio in lines:
        assert float(base) > 100 and float(change) == float(base) and ratio == "1.000"


def test_several_workloads_and_seeds_checked_before_timing(capsys):
    assert ab_query.main([*TINY, "--workload", "uniform-2d", "uniform-3d-k2", "--seed", "3", "4"]) == 0
    out = capsys.readouterr().out
    checked = [line for line in out.splitlines() if line.endswith(EQUAL)]
    assert [line.split(",")[0] for line in checked] == [
        "uniform-2d seed 3", "uniform-2d seed 4", "uniform-3d-k2 seed 3", "uniform-3d-k2 seed 4"
    ]
    assert out.count("ratio") == 4 * 4  # calls per query, p50, p95 and mean per pair
    assert out.rindex(EQUAL) < out.index("ratio")


def test_a_cost_difference_exits_nonzero(monkeypatch, capsys):
    _extra_singleton_when(monkeypatch, lambda struct: True)
    assert ab_query.main([*TINY, "--workload", "uniform-2d", "--seed", "3"]) == 1
    assert "cost base" in capsys.readouterr().out


def test_one_differing_pair_fails_the_run_untimed(monkeypatch, capsys):
    _extra_singleton_when(monkeypatch, lambda struct: struct.config.k == 2)  # uniform-3d-k2 only
    assert ab_query.main([*TINY, "--workload", "uniform-2d", "uniform-3d-k2", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert f"uniform-2d seed 3, base HEAD: {EQUAL}" in out
    assert "uniform-3d-k2 seed 3, base HEAD: 12 differences" in out
    assert "1 of 2 (workload, seed) pairs differ" in out and "ratio" not in out


def test_arrays_compares_the_stored_sums(monkeypatch, capsys):
    monkeypatch.setattr(ab_query, "import_base", _import_working_tree)
    assert ab_query.main([*TINY, "--workload", "uniform-3d-k2", "--seed", "3", "--arrays"]) == 0
    assert "stored arrays, answers, costs, audits and s_plus equal" in capsys.readouterr().out
    real = idemrange.build_ids

    def build_ids(*args, **kwargs):
        struct = real(*args, **kwargs)
        struct.blocks = dict(reversed(struct.blocks.items()))  # queries never read it
        return struct

    monkeypatch.setattr(idemrange, "build_ids", build_ids)
    assert ab_query.main([*TINY, "--workload", "uniform-3d-k2", "--seed", "3", "--arrays"]) == 1
    assert "stored blocks differ\nuniform-3d-k2 seed 3, base HEAD: 1 differences" in capsys.readouterr().out


def test_arrays_report_a_view_with_another_shape():
    """A view with a field more or less is a difference, even where the
    fields both sides have are equal, and so is a view only one side has."""
    args = argparse.Namespace(log2_n=8, queries=4)
    sides = ab_query.build_pair(idemrange, "uniform-3d-k2", 3, args)
    assert ab_query.array_differences(sides) == []
    sums = sides[1][1].sums
    view = sums.by_hi0
    for changed in ((*view, np.zeros(1)), view[:1]):  # a field added, a field dropped
        sums.by_hi0 = changed
        assert ab_query.array_differences(sides) == ["stored by_hi0 differ"]
    del sums.by_hi0  # only the base side stores a view
    assert ab_query.array_differences(sides) == ["stored by_hi0 differ"]
