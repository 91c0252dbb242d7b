import importlib.util
import subprocess
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


def test_base_is_recorded_as_a_commit_id(tmp_path):
    def git(*args):
        cmd = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args]
        return subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    for i in range(2):
        git("commit", "-q", "--allow-empty", "-m", f"c{i}")
    head, parent = git("rev-parse", "--short", "HEAD"), git("rev-parse", "--short", "HEAD~1")
    assert head != parent
    assert bench_pairs.short_rev("HEAD", tmp_path) == head
    assert bench_pairs.short_rev("HEAD~1", tmp_path) == parent
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.short_rev("no-such-revision", tmp_path)


def test_progress_line_shows_p50_and_setup():
    def run(p50, setup):
        return {"metrics": {"query_p50_ms": {"value": p50}, "setup_s": {"value": setup}}}

    line = bench_pairs.progress(run(1.5, 0.0551), run(1.25, 0.0249))
    assert line == "query_p50_ms base 1.500 change 1.250  setup_s base 0.055 change 0.025"
