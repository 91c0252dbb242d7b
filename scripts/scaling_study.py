#!/usr/bin/env python3
"""Query-cost scaling study for the main structure.

Builds the structure over a grid of n, runs uniform queries, and writes one
CSV row per (n, d, k) with the mean/max cost and the two candidate fits
(log2(n) * log2(log2(n)) versus log2(n)^2).  Reproduces the numbers behind
the scaling acceptance check at whatever grid you like.  ``build_s`` times
``build_ids`` alone (``perf_counter``), not the point generation.
``peak_rss_mb`` is the process's peak resident set so far (``ru_maxrss``),
so a row also covers every smaller n before it; run one exponent per
process for each size's own peak.  ``query_ms`` is the mean wall time per
query, and ``scan_ms`` that of a column scan over the same queries
(``column_scan``: what a user would write in place of the structure);
every structure answer is checked equal to the scan's, and the study stops
with an error on the first that is not.  ``mq_over_bound`` is S+ times the mean
cost over the paper's lower bound on their product for idempotent
semigroups, n (log2 n * log2 log2 n)^(d-1): a flat column across n means
the trade-off is tight at that (d, k).  ``--semigroup`` picks the
structure's semigroup (default max), so one command compares, say, an
id-set build's peak RSS with a max build's.

    python3 scripts/scaling_study.py --d 2 --k 1 --exps 10 11 12 13 14 --queries 300
    python3 scripts/scaling_study.py --exps 16 --semigroup idset
"""

import argparse
import csv
import math
import resource
import sys
import time

import numpy as np

import idemrange as ir


def mq_over_bound(s_plus: int, mean_cost: float, n: int, d: int) -> float:
    """S+ * mean cost / (n (log2 n * log2 log2 n)^(d-1))."""
    return s_plus * mean_cost / (n * (math.log2(n) * math.log2(math.log2(n))) ** (d - 1))


def column_scan(cols: np.ndarray, w: np.ndarray, sg, q):
    """The semigroup value of the points inside the closed box ``q``, None
    when empty: one mask built one contiguous coordinate column (a row of
    ``cols``) at a time, then one ``sg.reduce`` of the weights ``w`` inside."""
    keep = np.ones(cols.shape[1], dtype=bool)
    for col, lo, hi in zip(cols, q.lo, q.hi):
        keep &= (col >= lo) & (col <= hi)
    return sg.reduce(w[keep]) if keep.any() else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--k", type=int, default=1)
    ap.add_argument("--exps", type=int, nargs="+", default=[10, 11, 12, 13, 14])
    ap.add_argument("--queries", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--semigroup", default="max", choices=sorted(ir.SEMIGROUPS))
    args = ap.parse_args()

    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "d", "k", "s_plus", "mean_cost", "max_cost", "fit_loglog", "fit_log2", "mq_over_bound", "build_s", "query_ms", "scan_ms", "peak_rss_mb"])
    sg = ir.semigroup_by_name(args.semigroup)
    for exp in args.exps:
        n = 2**exp
        pts = ir.uniform_random(n, args.d, seed=args.seed)
        t0 = time.perf_counter()
        struct = ir.build_ids(pts, args.k, sg)
        t_build = time.perf_counter() - t0
        rng = np.random.default_rng((args.seed, n))
        queries = []
        for _ in range(args.queries):
            lo, hi = [], []
            for _ in range(args.k):
                a, b = sorted(rng.random(2).tolist())
                lo.append(a)
                hi.append(b)
            for _ in range(args.d - args.k):
                lo.append(ir.NEG_INF)
                hi.append(float(rng.random()))
            queries.append(ir.Box(tuple(lo), tuple(hi)))
        t0 = time.perf_counter()
        answers = [ir.query(struct, q) for q in queries]
        query_ms = (time.perf_counter() - t0) * 1e3 / len(queries)
        cols, w = np.ascontiguousarray(pts.coords.T), sg.weights(pts)
        t0 = time.perf_counter()
        scans = [column_scan(cols, w, sg, q) for q in queries]
        scan_ms = (time.perf_counter() - t0) * 1e3 / len(queries)
        for q, a, v in zip(queries, answers, scans):
            if (a.value is None) != (v is None) or (v is not None and not sg.equal(a.value, v)):
                raise SystemExit(f"n={n}: structure and column scan differ on {q}")
        costs = [a.total_cost for a in answers]
        mean_cost = float(np.mean(costs))
        shape = math.log2(n) ** (args.d - 1) * math.log2(math.log2(n)) ** args.k
        writer.writerow(
            [
                n,
                args.d,
                args.k,
                struct.s_plus,
                round(mean_cost, 2),
                int(np.max(costs)),
                round(mean_cost / shape, 4),
                round(mean_cost / math.log2(n) ** args.d, 4),
                round(mq_over_bound(struct.s_plus, mean_cost, n, args.d), 4),
                round(t_build, 2),
                round(query_ms, 3),
                round(scan_ms, 3),
                round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),  # KiB on Linux
            ]
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
