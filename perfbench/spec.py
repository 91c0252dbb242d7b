"""Metric definitions of the idemrange benchmark, and the writer of its manifests.

``python3 perfbench/spec.py`` rewrites ``BENCHMARK.json`` (the fixed-schema
file at the repository root) and ``perfbench/manifest.json`` (workload
parameters, what every metric means, which end-to-end metric each layer
metric should move on which workload, and the environment it was written
on).  The smoke test fails when either file is out of date.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from workloads import ROOT, WORKLOADS

HERE = ROOT / "perfbench"
RUN_SECONDS = 34

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "median wall time of build_ids over the run's builds"),
    ("query_p50_ms", "ms", "lower", 0.25, "median latency of IdsStructure.query in the timed closed loop"),
    ("query_p95_ms", "ms", "lower", 0.25, "95th-percentile query latency (at least 200 timed queries)"),
    ("query_throughput_qps", "1/s", "higher", 0.25, "timed queries divided by the wall time of the timed loop"),
    ("cost_mean", "count", "lower", 0.2, "mean sums_used + singletons_used over the distinct queries (exact per seed)"),
    ("cost_p95", "count", "lower", 0.25, "95th percentile of sums_used + singletons_used over the distinct queries (exact per seed)"),
    ("s_plus", "count", "lower", 0.1, "stored sums with at least 2 members (exact per seed)"),
    ("peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of the benchmark process, one workload per process"),
]

ALL = ("uniform-2d", "uniform-3d-k2", "clustered-idset")

# name, unit, better, end-to-end metrics it should move, workloads where, meaning
PER_LAYER = [
    ("idsstruct.query_ms", "ms", "lower", ("query_p50_ms",), ALL,
     "mean traced query span; equals self_ms plus the per-query child layer times"),
    ("idsstruct.self_ms", "ms", "lower", ("query_p50_ms", "query_throughput_qps"), ("uniform-2d", "uniform-3d-k2"),
     "query span minus its child spans: candidate gather plus _compress"),
    ("idsstruct.build_self_s", "s", "lower", ("setup_s", "peak_rss_mb"), ALL,
     "build span minus cwd.build_s and gridindex.build_s (peak_rss_mb on clustered-idset)"),
    ("idsstruct.decompose_ms", "ms", "lower", ("query_p50_ms",), ("clustered-idset",),
     "time in decompose_query per query"),
    ("idsstruct.pieces_per_query", "count", "lower", ("query_p50_ms",), ("clustered-idset",),
     "anchored pieces returned by decompose_query per query"),
    ("idsstruct.singleton_only_frac", "ratio", "lower", ("query_p50_ms",), ("clustered-idset",),
     "share of queries that fall back to singleton enumeration"),
    ("idsstruct.sums_per_query", "count", "lower", ("cost_mean",), ("uniform-3d-k2", "clustered-idset"),
     "mean sums_used per query"),
    ("idsstruct.singletons_per_query", "count", "lower", ("cost_mean",), ("uniform-3d-k2", "clustered-idset"),
     "mean singletons_used per query"),
    ("idsstruct.cost_max", "count", "lower", ("cost_p95",), ("uniform-3d-k2",),
     "largest sums_used + singletons_used over the distinct queries; too seed-dependent to gate"),
    ("idsstruct.blocks", "count", "lower", ("setup_s", "peak_rss_mb"), ALL, "non-empty (orientation, family index) blocks"),
    ("idsstruct.boxes", "count", "lower", ("setup_s", "peak_rss_mb"), ALL, "stored boxes over all blocks"),
    ("cwd.build_s", "s", "lower", ("setup_s",), ("uniform-3d-k2",), "time in build_cwd_family"),
    ("points.hammersley_s", "s", "lower", ("setup_s",), ("uniform-3d-k2",),
     "time in hammersley_wd inside the family build"),
    ("cwd.family_points", "count", "lower", ("setup_s",), ("uniform-3d-k2",), "points over all family sets"),
    ("gridindex.build_s", "s", "lower", ("setup_s",), ALL, "time in GridIndex construction"),
    ("gridindex.points_in_box_ms", "ms", "lower", ("query_p50_ms",), ("clustered-idset",),
     "time in GridIndex.points_in_box per query"),
    ("gridindex.calls_per_query", "count", "lower", ("query_p50_ms",), ("clustered-idset",),
     "points_in_box calls per query"),
    ("gridindex.candidates_per_call", "count", "lower", ("query_p50_ms",), ("clustered-idset",),
     "points from candidates_in_box per call"),
    ("gridindex.hit_ratio", "ratio", "higher", ("query_p50_ms",), ("clustered-idset",),
     "points returned by points_in_box over candidates_in_box points"),
    ("dyadic.cover_ms", "ms", "lower", ("cost_mean",), ("uniform-3d-k2",),
     "time in balanced_prefix_cover and suffix_cover per query"),
    ("dyadic.pairs_per_query", "count", "lower", ("cost_mean",), ("uniform-3d-k2",), "cover pairs returned per query"),
    ("dominance.cover_ms", "ms", "lower", ("cost_mean",), ("uniform-3d-k2",), "time in dominance_cover per query"),
    ("dominance.calls_per_query", "count", "lower", ("cost_mean",), ("uniform-3d-k2",), "dominance_cover calls per query"),
    ("dominance.candidates_per_call", "count", "higher", ("cost_mean",), ("uniform-3d-k2",),
     "candidate sums handed to dominance_cover per call"),
    ("dominance.targets_per_call", "count", "lower", ("cost_mean",), ("uniform-3d-k2",), "target points per call"),
    ("dominance.maxima_per_call", "count", "higher", ("cost_mean",), ("uniform-3d-k2",), "maxima of the candidates per call"),
    ("dominance.covered_ratio", "ratio", "higher", ("cost_mean",), ("uniform-3d-k2",), "covered targets over targets"),
    ("dominance.used_ratio", "ratio", "higher", ("cost_mean",), ("uniform-3d-k2",), "used maxima over maxima"),
    ("semigroup.fold_ms", "ms", "lower", ("query_p50_ms",), ("clustered-idset",), "time in fold_values per query"),
    ("semigroup.singleton_ms", "ms", "lower", ("query_p50_ms",), ("clustered-idset",), "time in singleton_value per query"),
    ("semigroup.singleton_calls_per_query", "count", "lower", ("query_p50_ms",), ("clustered-idset",),
     "singleton_value calls per query"),
    ("brute.scan_ms_p50", "ms", "lower", (), ALL,
     "median latency of the brute-force scan oracle on the same queries: the reference every query number sits beside"),
    ("trace_overhead_frac", "ratio", "lower", (), ALL,
     "traced query-pass wall time over the untraced pass on the same queries, minus 1"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER],
    }


def environment() -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_status = "installed"
    except ImportError:
        numba_status = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_status,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def manifest() -> dict:
    return {
        "loop": "closed loop, one caller, one process, single-threaded",
        "workloads": {w.name: {"why": w.why, **w.params()} for w in WORKLOADS.values()},
        "end_to_end": {n: {"unit": u, "better": b, "bound": bound, "meaning": what} for n, u, b, bound, what in END_TO_END},
        "per_layer": {
            n: {"unit": u, "better": b, "moves": list(moves), "on": list(on), "meaning": what}
            for n, u, b, moves, on, what in PER_LAYER
        },
        "failed_frac": "failed / attempted in the result line; kept out of end_to_end because it is 0 when correct",
        "environment": environment(),
    }


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def main() -> int:
    (ROOT / "BENCHMARK.json").write_text(_dump(benchmark_json()))
    (HERE / "manifest.json").write_text(_dump(manifest()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
