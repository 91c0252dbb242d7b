import csv
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np
import pytest

import idemrange as ir

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scaling_study.py"
_spec = importlib.util.spec_from_file_location("scaling_study", _PATH)
scaling_study = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling_study)


def test_mq_over_bound_hand_computed():
    # n = 16, d = 3: log2 n = 4, log2 log2 n = 2, bound = 16 * (4 * 2)^2 = 1024
    assert scaling_study.mq_over_bound(64, 8.0, 16, 3) == 0.5
    # n = 2^16, d = 2: bound = 65536 * 16 * 4 = 4,194,304
    assert scaling_study.mq_over_bound(105_726, 41.1, 1 << 16, 2) == pytest.approx(105_726 * 41.1 / 4_194_304)
    assert scaling_study.mq_over_bound(1024, 3.0, 256, 1) == 12.0  # d = 1: the bound is n


@pytest.mark.parametrize("name", sorted(ir.SEMIGROUPS))
def test_column_scan_matches_scan_value(name):
    sg = ir.semigroup_by_name(name)
    pts = ir.uniform_random(200, 3, seed=8)
    cols, w = np.ascontiguousarray(pts.coords.T), sg.weights(pts)
    rng = np.random.default_rng(9)
    boxes = [ir.Box((-np.inf,) * 3, (np.inf,) * 3), ir.Box((1.5,) * 3, (2.0,) * 3)]  # all, none
    for _ in range(40):
        a, b = np.sort(rng.random((2, 3)), axis=0)
        boxes.append(ir.Box(tuple(a), tuple(b)))
    nonempty = 0
    for q in boxes:
        want = ir.scan_value(pts, q, sg)
        got = scaling_study.column_scan(cols, w, sg, q)
        assert (got is None) == (want is None) and (want is None or sg.equal(got, want))
        nonempty += want is not None
    assert nonempty > 10


def test_study_prints_query_and_scan_columns(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["scaling_study.py", "--exps", "6", "7", "--queries", "20", "--semigroup", "idset"])
    assert scaling_study.main() == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["n"] for r in rows] == ["64", "128"]
    assert all(float(r["query_ms"]) > 0 and float(r["scan_ms"]) > 0 for r in rows)
