import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "query_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "query_throughput_qps", "better": "higher", "bound": 0.25},
    {"name": "s_plus", "better": "lower", "bound": 0.1},
]


def _run(p50, qps, s_plus):
    return {"metrics": {"query_p50_ms": {"value": p50}, "query_throughput_qps": {"value": qps}, "s_plus": {"value": s_plus}}}


def _rows(pairs):
    return {r["metric"]: r for r in bench_pairs.summarize(pairs, METRICS)}


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_base_iqr():
    base = [3.0, 3.1, 3.2, 3.3, 3.4, 3.0, 3.1, 3.2, 3.3, 3.4]
    pairs = [(_run(b, 100.0, 50), _run(b - 1.0, 100.0, 50)) for b in base]
    rows = _rows(pairs)
    assert rows["query_p50_ms"]["wins"] == 10 and rows["query_p50_ms"]["gain"]
    assert not rows["query_p50_ms"]["worse"]
    assert rows["query_p50_ms"]["base"] == pytest.approx([3.1, 3.2, 3.3])
    assert rows["s_plus"]["wins"] == 0 and not rows["s_plus"]["gain"] and not rows["s_plus"]["worse"]
    pairs[0] = (pairs[0][0], _run(9.0, 100.0, 50))  # two losses of ten: no gain
    pairs[1] = (pairs[1][0], _run(9.0, 100.0, 50))
    assert not _rows(pairs)["query_p50_ms"]["gain"]
    small = [(_run(b, 100.0, 50), _run(b - 0.01, 100.0, 50)) for b in base]  # wins inside the base IQR
    assert not _rows(small)["query_p50_ms"]["gain"]


def test_worse_is_a_median_past_the_metric_bound():
    def rows(p50_change, qps_change, s_plus_change):
        return _rows([(_run(4.0, 200.0, 100), _run(p50_change, qps_change, s_plus_change))] * 5)

    ok = rows(4.99, 151.0, 109)
    assert not any(r["worse"] for r in ok.values())
    bad = rows(5.01, 149.0, 111)
    assert all(r["worse"] for r in bad.values())
    better = rows(1.0, 400.0, 10)  # moving the right way is never worse
    assert not any(r["worse"] for r in better.values())
