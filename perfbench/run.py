"""idemrange benchmark: build the structure, answer a closed loop of queries,
check every answer against the brute-force oracle, print the metrics.

    python3 perfbench/run.py --workload uniform-2d --seed 1 --seconds 30 --trace 0

One caller in one process, single-threaded.  Inputs come from the seed
(``workloads.py``); generation, warm-up and oracle checks sit outside the
timed region.  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
reports the per-layer ones (``tracing.py``) from answering every query once
untraced and once traced, however long that takes, and writes the spans to
``perfbench/out/<workload>.trace.npz``.  Each metric is printed with its
unit, one per line; the last line of standard output is the JSON result.
The exit code is non-zero when any answer is wrong or any query raised.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import numpy as np

from spec import END_TO_END, HERE, PER_LAYER
from workloads import WORKLOADS, answer_matches, make_inputs, oracle
import tracing
from idemrange import build_ids

# set-up is timed over at least this many builds and this much build time
SETUP_MIN_BUILDS = 3
SETUP_MIN_SECONDS = 2.0
WARMUP_QUERIES = 5
UNITS = {n: u for n, u, *_ in END_TO_END + PER_LAYER}


def _build(inp):
    return build_ids(inp.points, inp.workload.k, inp.sg, weights=inp.weights)


def _answer(struct, q):
    """(latency in ns, answer or the exception the query raised)."""
    t0 = time.perf_counter_ns()
    try:
        ans = struct.query(q)
    except Exception as exc:  # a raising query counts as failed, not as a crash
        ans = exc
    return time.perf_counter_ns() - t0, ans


def _timed_pass(struct, queries, budget_ns=None):
    """Answer the queries in order, timing each one.

    With ``budget_ns`` the pass stops once that much loop time has passed.
    Returns (per-query latencies in ns, answers or exceptions, pass wall ns).
    """
    lat, answers = [], []
    clock = time.perf_counter_ns
    t_pass = clock()
    for q in queries:
        if budget_ns is not None and clock() - t_pass >= budget_ns:
            break
        ns, ans = _answer(struct, q)
        lat.append(ns)
        answers.append(ans)
    return lat, answers, clock() - t_pass


def _check(inp, expected, answers) -> int:
    """Number of answers that raised or differ from the oracle."""
    return sum(
        isinstance(ans, Exception) or not answer_matches(inp, ans.value, expected[i]) for i, ans in enumerate(answers)
    )


def _oracle_all(inp):
    expected, scan_ns = [], []
    for q in inp.queries:
        t0 = time.perf_counter_ns()
        expected.append(oracle(inp, q))
        scan_ns.append(time.perf_counter_ns() - t0)
    return expected, scan_ns


def measure(inp, seconds: float) -> dict:
    """End-to-end run: median build time over repeated builds, then full
    passes over the query list until ``seconds`` of loop time have passed
    (the last pass may stop early; the first always completes)."""
    expected, _ = _oracle_all(inp)
    setup = []
    while len(setup) < SETUP_MIN_BUILDS or sum(setup) < SETUP_MIN_SECONDS:
        struct = None  # free the previous build before timing the next
        gc.collect()
        t0 = time.perf_counter()
        struct = _build(inp)
        setup.append(time.perf_counter() - t0)
    _timed_pass(struct, inp.queries[:WARMUP_QUERIES])

    budget_ns = int(seconds * 1e9)
    lat, failed, loop_ns, costs = [], 0, 0, None
    while loop_ns < budget_ns or costs is None:
        pass_lat, answers, wall = _timed_pass(struct, inp.queries, None if costs is None else budget_ns - loop_ns)
        loop_ns += wall
        lat += pass_lat
        failed += _check(inp, expected, answers)
        if costs is None:
            costs = [a.total_cost for a in answers if not isinstance(a, Exception)]

    lat_ms = np.asarray(lat) / 1e6
    metrics = {
        "setup_s": float(np.median(setup)),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p95_ms": float(np.percentile(lat_ms, 95)),
        "query_throughput_qps": len(lat) / (loop_ns / 1e9),
        "cost_mean": float(np.mean(costs)) if costs else float("nan"),
        "cost_p95": float(np.percentile(costs, 95)) if costs else float("nan"),
        "s_plus": float(struct.s_plus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"attempted": len(lat), "failed": failed, "metrics": metrics}


def measure_layers(inp, trace_path=None) -> dict:
    """Traced run: one traced build, then every query answered once untraced
    and once traced, in alternating order so that drift in machine speed
    cancels out of trace_overhead_frac; per-layer metrics from the spans."""
    expected, scan_ns = _oracle_all(inp)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        build_span = tracer.begin("idsstruct.build")
        struct = _build(inp)
        tracer.finish(build_span)
    _timed_pass(struct, inp.queries[:WARMUP_QUERIES])
    plain_ns = traced_ns = failed = 0
    answers = []
    for i, q in enumerate(inp.queries):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                tracer.current_qid = i
                with tracing.installed(tracer):
                    span = tracer.begin("idsstruct.query")
                    ns, ans = _answer(struct, q)
                    tracer.finish(span)
                traced_ns += ns
                answers.append(ans)
            else:
                ns, ans = _answer(struct, q)
                plain_ns += ns
            failed += _check(inp, expected[i : i + 1], [ans])
    tracing.require_all_called(tracer)

    metrics = tracing.layer_metrics(tracer)
    ok = [a for a in answers if not isinstance(a, Exception)]
    metrics["idsstruct.sums_per_query"] = float(np.mean([a.sums_used for a in ok]))
    metrics["idsstruct.singletons_per_query"] = float(np.mean([a.singletons_used for a in ok]))
    metrics["idsstruct.cost_max"] = float(max(a.total_cost for a in ok))
    metrics["idsstruct.blocks"] = float(len(struct.blocks))
    metrics["idsstruct.boxes"] = float(struct.num_boxes)
    metrics["brute.scan_ms_p50"] = float(np.median(scan_ns)) / 1e6
    metrics["trace_overhead_frac"] = traced_ns / plain_ns - 1.0
    if trace_path is not None:
        tracer.write(trace_path, {"workload": inp.workload.name, "params": inp.workload.params()})
    return {"attempted": 2 * len(inp.queries), "failed": failed, "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, *, trace_path=None, **size) -> dict:
    """One benchmark run; ``size`` may override log2_n / num_queries."""
    inp = make_inputs(WORKLOADS[workload], seed, **size)
    out = measure_layers(inp, trace_path) if trace else measure(inp, seconds)
    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    return {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": out["metrics"][n], "unit": UNITS[n]} for n in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    trace_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"{args.workload}.trace.npz"
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=trace_path)
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':40s} {result['failed'] / result['attempted']:.6g} ratio  ({result['attempted']} attempted)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
