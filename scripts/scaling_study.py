#!/usr/bin/env python3
"""Query-cost scaling study for the main structure.

Builds the structure over a grid of n, runs uniform queries, and writes one
CSV row per (n, d, k) with the mean/max cost and the two candidate fits
(log2(n) * log2(log2(n)) versus log2(n)^2).  Reproduces the numbers behind
the scaling acceptance check at whatever grid you like.  ``build_s`` times
``build_ids`` alone (``perf_counter``), not the point generation.
``peak_rss_mb`` is the process's peak resident set so far (``ru_maxrss``),
so a row also covers every smaller n before it; run one exponent per
process for each size's own peak.  ``--semigroup`` picks the structure's
semigroup (default max), so one command compares, say, an id-set build's
peak RSS with a max build's.

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
    writer.writerow(["n", "d", "k", "s_plus", "mean_cost", "max_cost", "fit_loglog", "fit_log2", "build_s", "query_s", "peak_rss_mb"])
    for exp in args.exps:
        n = 2**exp
        pts = ir.uniform_random(n, args.d, seed=args.seed)
        t0 = time.perf_counter()
        struct = ir.build_ids(pts, args.k, ir.semigroup_by_name(args.semigroup))
        t_build = time.perf_counter() - t0
        rng = np.random.default_rng((args.seed, n))
        costs = []
        t0 = time.perf_counter()
        for _ in range(args.queries):
            lo, hi = [], []
            for _ in range(args.k):
                a, b = sorted(rng.random(2).tolist())
                lo.append(a)
                hi.append(b)
            for _ in range(args.d - args.k):
                lo.append(ir.NEG_INF)
                hi.append(float(rng.random()))
            costs.append(ir.query(struct, ir.Box(tuple(lo), tuple(hi))).total_cost)
        t_query = time.perf_counter() - t0
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
                round(t_build, 2),
                round(t_query, 2),
                round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024),  # KiB on Linux
            ]
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
