import importlib.util
import subprocess
from pathlib import Path

import pytest

import idemrange
from idemrange import QueryAnswer

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_query", _ROOT / "scripts" / "ab_query.py")
ab_query = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_query)

TINY = ["--base", "HEAD", "--seed", "3", "--log2-n", "8", "--queries", "12", "--passes", "1"]


@pytest.fixture(autouse=True)
def _needs_git():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")


@pytest.mark.parametrize("workload", ["uniform-3d-k2", "clustered-idset"])
def test_tiny_run_against_head(workload, capsys):
    assert ab_query.main([*TINY, "--workload", workload]) == 0
    out = capsys.readouterr().out
    assert "answers, costs, audits and s_plus equal" in out
    assert "ratio" in out


def test_a_cost_difference_exits_nonzero(monkeypatch, capsys):
    real = idemrange.query

    def one_more_singleton(struct, q, return_audit=False):
        ans, audit = real(struct, q, return_audit=True)
        ans = QueryAnswer(ans.value, ans.sums_used, ans.singletons_used + 1)
        return (ans, audit) if return_audit else ans

    monkeypatch.setattr(idemrange, "query", one_more_singleton)
    assert ab_query.main([*TINY, "--workload", "uniform-2d"]) == 1
    assert "cost base" in capsys.readouterr().out
