#!/usr/bin/env python3
"""Adversarial-query probe: distribution checks plus cost-vs-exact-cover.

Samples the hard query distribution on a structure built over Hammersley
input, prints the check-I/check-II rates, and, for small instances, compares
the structure's achieved cost against the exact minimum cover.

    python3 scripts/hard_query_probe.py --n 256 --samples 2000
"""

import argparse
import sys

import numpy as np

import idemrange as ir


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    pts = ir.hammersley_wd(args.n, 2)
    struct = ir.build_ids(pts, 1, ir.ID_SET)
    trees = struct.trees
    h = struct.config.h
    rng = np.random.default_rng(args.seed)
    batch = ir.sample_hard_queries(rng, trees, args.samples)
    print(f"h={h}; depth histogram: {np.bincount(batch['ells'][:, 0], minlength=h).tolist()}")
    for j, (rate_i, rate_ii) in ir.check_rates(batch, h, (1, 2, 4)).items():
        ii = "n/a" if rate_ii is None else f"{rate_ii:.4f}"  # None: no draw passes check I
        print(f"j={j}: check-I fail rate {rate_i:.4f} (expect {j / h:.4f}), check-II given I {ii} (expect 0.5)")

    rng = np.random.default_rng(args.seed)
    gaps = []
    for _ in range(min(args.samples, 500)):
        hq = ir.sample_hard_query(rng, trees)
        targets = ir.scan_ids(pts, hq.box)
        if not 1 <= targets.size <= 16:
            continue
        tset = frozenset(int(i) for i in targets)
        pool = [s for s in {frozenset(int(i) for i in ids) & tset for ids, _, _ in ir.usable_sums(struct, hq.box)} if len(s) >= 2]
        if len(pool) > 16:
            continue
        cost = ir.query(struct, hq.box).total_cost
        mc = ir.min_cover(targets, pool)
        gaps.append(cost - mc)
    if gaps:
        gaps = np.asarray(gaps)
        print(f"tiny instances: {len(gaps)}; cost - min_cover: mean {gaps.mean():.2f}, max {gaps.max()}, always >= 0: {bool((gaps >= 0).all())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
