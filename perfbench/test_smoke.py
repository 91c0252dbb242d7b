"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload's code path traced and untraced, checks the result
schema, the span accounting, determinism of the count metrics, the oracle
check, the tracer's failure modes, and that BENCHMARK.json and
manifest.json match spec.py.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402
from idemrange import QueryAnswer, idsstruct  # noqa: E402

TINY = {"log2_n": 9, "num_queries": 24}
E2E = [n for n, *_ in spec.END_TO_END]
LAYER = [n for n, *_ in spec.PER_LAYER]
# figures that are counts or ratios of counts, so must repeat exactly for a seed
E2E_COUNTS = [n for n, u, *_ in spec.END_TO_END if u == "count"]
LAYER_COUNTS = [n for n, u, *_ in spec.PER_LAYER if u in ("count", "ratio") and n != "trace_overhead_frac"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny(workload, trace, seed=3):
    return run.run(workload, seed, 1, trace, **TINY)


@pytest.fixture(scope="module", autouse=True)
def few_builds():
    # tiny builds take milliseconds; SETUP_MIN_BUILDS still applies
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_MIN_SECONDS", 0.0)
        yield


@pytest.fixture(scope="module")
def results():
    return {(w, t): _tiny(w, t) for w in WORKLOADS for t in (False, True)}


def _check_schema(result, names):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == names
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        assert m["unit"] == run.UNITS[name]
    json.dumps(result)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_schema(results, workload):
    r = results[(workload, False)]
    _check_schema(r, E2E)
    assert r["attempted"] >= TINY["num_queries"]
    assert all(r["metrics"][n]["value"] > 0 for n in E2E)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_schema(results, workload):
    r = results[(workload, True)]
    _check_schema(r, LAYER)
    assert r["attempted"] == 2 * TINY["num_queries"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_child_spans_add_up_to_query_time(results, workload):
    m = {n: v["value"] for n, v in results[(workload, True)]["metrics"].items()}
    parts = m["idsstruct.self_ms"] + sum(m[n] for n in tracing.QUERY_CHILD_LAYERS)
    assert parts == pytest.approx(m["idsstruct.query_ms"], rel=1e-9)
    assert m["idsstruct.self_ms"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed_and_another_seed_runs_clean(results, workload):
    again = _tiny(workload, False)
    for n in E2E_COUNTS:
        assert again["metrics"][n]["value"] == results[(workload, False)]["metrics"][n]["value"], n
    again = _tiny(workload, True)
    for n in LAYER_COUNTS:
        assert again["metrics"][n]["value"] == results[(workload, True)]["metrics"][n]["value"], n
    other = _tiny(workload, False, seed=4)
    assert other["correct"] and other["failed"] == 0


def test_inputs_depend_only_on_seed():
    wl = WORKLOADS["clustered-idset"]
    a, b = make_inputs(wl, 7, **TINY), make_inputs(wl, 7, **TINY)
    assert (a.points.coords == b.points.coords).all() and a.queries == b.queries
    assert a.queries != make_inputs(wl, 8, **TINY).queries


def test_wrong_or_raising_answers_count_as_failed(monkeypatch):
    calls = {"n": 0}

    def bad_query(self, q, return_audit=False):
        calls["n"] += 1
        if calls["n"] % 2:
            raise RuntimeError("boom")
        return QueryAnswer(-1.0, 0, 1)  # the max of weights drawn from [0, 1) is never -1

    monkeypatch.setattr(idsstruct.IdsStructure, "query", bad_query)
    r = _tiny("uniform-2d", False)
    assert not r["correct"] and r["failed"] == r["attempted"]


def test_missing_wrapped_name_fails_and_originals_are_restored(monkeypatch):
    original = idsstruct.decompose_query
    monkeypatch.setattr(tracing, "PATCHES", tracing.PATCHES + [(idsstruct, "no_such_name", "x.y", None)])
    with pytest.raises(tracing.TraceError, match="no_such_name"):
        with tracing.installed(tracing.Tracer()):
            pass
    assert idsstruct.decompose_query is original
    for owner, attr, _, _ in tracing.PATCHES[:-1]:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_never_called_name_fails():
    with pytest.raises(tracing.TraceError, match="never called"):
        tracing.require_all_called(tracing.Tracer())


def test_benchmark_json_is_current_and_valid():
    doc = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert doc == spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8 and 1 <= len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in doc["end_to_end"] + doc["per_layer"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])

    manifest = json.loads((spec.HERE / "manifest.json").read_text())
    current = spec.manifest()
    manifest.pop("environment")
    current.pop("environment")
    assert manifest == current
