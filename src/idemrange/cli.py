"""Command-line front end: gen, bench, lbprobe.

Exit codes: 0 success, 1 verification failure, 2 usage error.  An argument
outside the package's supported range (a point count, dimension or k that
the point generators or ``build_ids`` refuse, or a negative query or sample
count) is a usage error, reported with the package's own message before any
output row.  All commands are deterministic under a fixed --seed; per-query
randomness derives from (seed, query_id) so rows are order-independent.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager

import numpy as np

from .brute import scan_ids, scan_value
from .geometry import NEG_INF, Box
from .idsstruct import build_ids, usable_sums
from .lb import (
    check_rates,
    count_defined_subproblems,
    eligible_sums,
    lambda_points,
    min_cover,
    place_sums,
    sample_hard_query,
    sample_hard_queries,
    subproblem,
    top_box,
)
from .points import hammersley_wd, save_point_set, uniform_random, write_point_set
from .semigroup import ID_SET, SEMIGROUPS, semigroup_by_name

BENCH_COLUMNS = [
    "n",
    "d",
    "k",
    "seed",
    "dist",
    "query_id",
    "sums_used",
    "singletons_used",
    "total_cost",
    "verified",
    "mean_cost",
    "max_cost",
    "s_plus",
]

LBPROBE_COLUMNS = [
    "sample_id",
    "y",
    "ells",
    "defined_subproblems",
    "phi",
    "topbox_size",
    "struct_cost",
    "min_cover",
    "skipped",
    "j_probe",
    "check_I_fail_rate",
    "check_II_cond_fail_rate",
]

# per-row probe work (struct query, exact cover, phi) only below this many samples
LBPROBE_DETAIL_LIMIT = 1000


def _gen(args, parser) -> int:
    with _usage_errors(parser):
        if args.kind == "hammersley":
            ps = hammersley_wd(args.n, args.d)
        else:
            ps = uniform_random(args.n, args.d, args.seed)
    if args.out:
        save_point_set(ps, args.out)
    else:
        write_point_set(ps, sys.stdout)
    return 0


@contextmanager
def _usage_errors(parser):
    """Turn the package's refusal of an argument (a ``ValueError``) into a
    usage error: the message, then exit 2."""
    try:
        yield
    except ValueError as e:
        parser.error(str(e))


def _uniform_query(rng: np.random.Generator, d: int, k: int) -> Box:
    lo, hi = [], []
    for _ in range(k):
        a, b = sorted(rng.random(2).tolist())
        lo.append(a)
        hi.append(b)
    for _ in range(d - k):
        lo.append(NEG_INF)
        hi.append(float(rng.random()))
    return Box(tuple(lo), tuple(hi))


def _bench(args, parser) -> int:
    if args.k >= args.d:
        parser.error("--k must be smaller than --d")
    if args.queries < 0:
        parser.error("--queries must be >= 0")
    if args.dist == "hard" and args.d < 2:
        parser.error("--dist hard needs --d >= 2")
    if args.dist == "hard" and args.k != args.d - 1:
        parser.error("--dist hard needs --k = d-1 (two-sided in the first d-1 dims)")
    sg = semigroup_by_name(args.semigroup)
    with _usage_errors(parser):
        if args.points == "hammersley":
            points = hammersley_wd(args.n, args.d)
        else:
            points = uniform_random(args.n, args.d, args.seed)
        # one draw for every semigroup: each casts it (sg.weights), id-sets ignore it
        weights = np.random.default_rng((args.seed, 1)).integers(0, 2**63, args.n, dtype=np.uint64)
        struct = build_ids(points, args.k, sg, weights=weights)
    writer = csv.writer(sys.stdout)
    writer.writerow(BENCH_COLUMNS)
    costs = []
    all_ok = True
    base = [args.n, args.d, args.k, args.seed, args.dist]
    for qid in range(args.queries):
        rng = np.random.default_rng((args.seed, qid))
        if args.dist == "hard":
            q = sample_hard_query(rng, struct.trees).box
        else:
            q = _uniform_query(rng, args.d, args.k)
        ans = struct.query(q)
        want = scan_value(points, q, sg, weights)
        ok = want is None if ans.value is None else want is not None and bool(sg.equal(ans.value, want))
        all_ok &= ok
        costs.append(ans.total_cost)
        writer.writerow(base + [qid, ans.sums_used, ans.singletons_used, ans.total_cost, str(ok).lower(), "", "", ""])
    mean_cost = float(np.mean(costs)) if costs else 0.0
    max_cost = int(np.max(costs)) if costs else 0
    writer.writerow(base + ["summary", "", "", "", str(all_ok).lower(), mean_cost, max_cost, struct.s_plus])
    return 0 if all_ok else 1


def _lbprobe(args, parser) -> int:
    if args.d < 2:
        parser.error("--d must be >= 2")
    if args.samples < 0:
        parser.error("--samples must be >= 0")
    with _usage_errors(parser):
        points = hammersley_wd(args.n, args.d)
        struct = build_ids(points, args.d - 1, ID_SET)
    trees = struct.trees
    h = struct.config.h
    jmax = max(1, h // 2)
    detail = args.samples <= LBPROBE_DETAIL_LIMIT
    placed = None
    if detail:
        sums = struct.sums
        rows = np.nonzero(sums.counts >= 1)[0]
        placed = place_sums([Box(tuple(sums.box_lo[r]), tuple(sums.box_hi[r])) for r in rows], trees)
    writer = csv.writer(sys.stdout)
    writer.writerow(LBPROBE_COLUMNS)
    ones = tuple([1] * (args.d - 1))
    for sid in range(args.samples):
        hq = sample_hard_query(np.random.default_rng((args.seed, sid)), trees)
        row = [sid, hq.y, ";".join(str(e) for e in hq.ells), count_defined_subproblems(hq, jmax)]
        if not detail:  # rates-only run: the per-row probes are marked skipped
            writer.writerow(row + ["", "", "", "", 1, "", "", ""])
            continue
        sub = subproblem(hq, ones)
        phi = ""
        tb_size = ""
        if sub.defined:
            phi = int(eligible_sums(placed, hq, sub).size)
            lam = lambda_points(args.delta, h, ones, args.n, struct.s_plus)
            tb = top_box(points, sub, lam)
            tb_size = 0 if tb is None else len(tb[1])
        ans = struct.query(hq.box)
        targets = scan_ids(points, hq.box)
        skipped = 0
        mc = ""
        if targets.size <= 20:
            pool = usable_sums(struct, hq.box)
            tset = frozenset(int(i) for i in targets)
            masks = {frozenset(int(i) for i in ids) & tset for ids, _, _ in pool}
            masks = [m for m in masks if len(m) >= 2]
            if len(masks) <= 20:
                mc = min_cover(targets, masks)
            else:
                skipped = 1
        else:
            skipped = 1
        writer.writerow(row + [phi, tb_size, ans.total_cost, mc, skipped, "", "", ""])
    batch = sample_hard_queries(np.random.default_rng(args.seed), trees, max(args.samples, 1))
    _lbprobe_summaries(writer, batch, h)
    return 0


def _lbprobe_summaries(writer, batch, h: int) -> None:
    """Trailing check-I / check-II rate rows for probe depths 1, 4, 8."""
    for j, (rate_i, rate_ii) in check_rates(batch, h, [j for j in (1, 4, 8) if j <= h - 1]).items():
        writer.writerow(["summary", "", "", "", "", "", "", "", "", j, rate_i, "" if rate_ii is None else rate_ii])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="idemrange", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a point set file")
    p_gen.add_argument("--kind", choices=["hammersley", "uniform"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="build the structure and emit per-query cost CSV")
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--d", type=int, required=True)
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--queries", type=int, required=True)
    p_bench.add_argument("--dist", choices=["uniform", "hard"], default="uniform")
    p_bench.add_argument("--semigroup", choices=list(SEMIGROUPS), default="idset")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--points", choices=["uniform", "hammersley"], default="uniform")

    p_lb = sub.add_parser("lbprobe", help="sample hard queries and probe the harness")
    p_lb.add_argument("--n", type=int, required=True)
    p_lb.add_argument("--d", type=int, required=True)
    p_lb.add_argument("--samples", type=int, required=True)
    p_lb.add_argument("--delta", type=float, default=0.01)
    p_lb.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    if args.command == "gen":
        return _gen(args, parser)
    if args.command == "bench":
        return _bench(args, parser)
    return _lbprobe(args, parser)


if __name__ == "__main__":
    sys.exit(main())
