"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, straight from the criteria; nothing is deferred
to later calibration.
"""

import math
import time

import numpy as np
import pytest

import idemrange as ir
from idemrange import NEG_INF, Box
from idemrange.dyadic import Node


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


# 1. Exactness vs oracle: n=4096, d=2, k=1, idset, 1000 uniform + 1000 hard.
def test_criterion_1_exactness(exactness_suite):
    r = exactness_suite
    ok = r["mismatches"] == 0 and r["queries"] == 2000
    _report(1, ok, f"{r['queries']} queries, {r['mismatches']} mismatches, {r['elapsed']:.1f}s")


# 2. Containment: every used non-singleton sum's box inside the query.
def test_criterion_2_containment(exactness_suite):
    r = exactness_suite
    _report(2, r["containment_violations"] == 0, f"{r['containment_violations']} violations in 2000 queries")


# 3. Storage bound: S+ <= 2^k * n over the full (d, k, n) grid.
def test_criterion_3_storage(built_cache):
    worst = 0.0
    for d in (2, 3):
        for k in sorted({1, d - 1}):
            for exp in range(10, 17):
                n = 2**exp
                _, struct = built_cache(n, d, k, ir.MAX_REAL)
                ratio = struct.s_plus / (2**k * n)
                worst = max(worst, ratio)
                assert struct.s_plus <= 2**k * n, (d, k, n, struct.s_plus)
    _report(3, worst <= 1.0, f"max S+/(2^k n) = {worst:.3f} over the grid")


# 4. Query-bound scaling at d=2, k=1: fit at 2^10..2^12, check 2^16 within 1.5x.
def test_criterion_4_scaling(built_cache):
    def mean_cost(n, queries=500):
        pts, struct = built_cache(n, 2, 1, ir.MAX_REAL)
        rng = np.random.default_rng((4242, n))
        costs = []
        for _ in range(queries):
            a, b = sorted(rng.random(2).tolist())
            q = Box((a, NEG_INF), (b, float(rng.random())))
            costs.append(ir.query(struct, q).total_cost)
        return float(np.mean(costs))

    def shape(n):
        return math.log2(n) * math.log2(math.log2(n))

    fits = {n: mean_cost(n) / shape(n) for n in (2**10, 2**11, 2**12)}
    c_fit = max(fits.values())
    mc16 = mean_cost(2**16)
    bound = 1.5 * c_fit * shape(2**16)
    # the theorem-vs-final-display discrepancy: report the log^2 n fit alongside
    log2_fits = {n: (fits[n] * shape(n)) / (math.log2(n) ** 2) for n in fits}
    ok = mc16 <= bound
    _report(
        4,
        ok,
        f"C={c_fit:.3f}, mean@2^16={mc16:.1f} <= {bound:.1f}; "
        f"alt log^2 fits {min(log2_fits.values()):.3f}..{max(log2_fits.values()):.3f}, "
        f"@2^16 {mc16 / math.log2(2**16) ** 2:.3f}",
    )


# 5. Balanced prefix cover: exhaustive over all leaves, heights 1..10.
def test_criterion_5_prefix_cover():
    failures = 0
    for height in range(1, 11):
        t = ir.build_dyadic_tree(0.0, 1.0, height)
        for rank in range(1 << height):
            leaf = Node(height, rank)
            pairs = ir.balanced_prefix_cover(t, leaf)
            intervals = sorted(t.interval(p.u) for p in pairs)
            cursor = 0.0
            for a, b in intervals:
                if a != cursor or b <= a:
                    failures += 1
                cursor = b
            if cursor != t.a(leaf):
                failures += 1
            depths = [p.u.depth for p in pairs]
            if any(depths.count(dd) > 2 for dd in depths) or len(pairs) > 2 * height:
                failures += 1
            for p in pairs:
                if p.u.depth != p.w.depth or t.b(p.u) != t.a(p.w):
                    failures += 1
    _report(5, failures == 0, f"{failures} failures over heights 1..10 (2046 leaves)")


# 6. CWD verification: N=512, h=8, k=1, d=2; all 36 sampled unions pass.
def test_criterion_6_cwd():
    fam = ir.build_cwd_family(N=512, h=8, k=1, d=2)
    probe = ir.verify_cwd(fam, eps=1e-9, mode="sampled", samples=100_000, seed=99)
    eps0 = probe.worst_epsilon
    rep = ir.verify_cwd(fam, eps=eps0, mode="sampled", samples=100_000, seed=99)
    ok = rep.all_passed and eps0 > 0 and len(rep.reports) == 36
    _report(6, ok, f"36 unions all pass at single eps0={eps0:.5f} > 0")


# 7. Dominance structure at d'=2, n=2^14.
def test_criterion_7_dominance():
    n = 2**14
    pts = ir.uniform_random(n, 2, seed=1001)
    x, y = np.ascontiguousarray(pts.coords.T)  # the oracle compares one contiguous column at a time
    max_m = {}
    mean_singles = {}
    mismatches = 0
    for s_exp in (8, 10, 12):
        s = 2**s_exp
        ds = ir.build_dominance(pts, s, ir.ID_SET)
        rng = np.random.default_rng((1001, s))
        qs = rng.random((10_000, 2))
        singles = np.empty(len(qs))
        mm = 0
        for i, q in enumerate(qs):
            ans = ir.dominance_query(ds, q)
            singles[i] = ans.singletons_used
            mm = max(mm, ans.sums_used)
            got = ans.value if ans.value is not None else np.empty(0, np.int64)
            want = np.sort(pts.ids[(x <= q[0]) & (y <= q[1])])
            if not np.array_equal(got, want):
                mismatches += 1
        max_m[s_exp] = mm
        mean_singles[s_exp] = float(singles.mean())
    c_prime = max_m[8] / math.log2(2**8)
    m_ok = max_m[12] <= 2 * c_prime * math.log2(2**12)
    # tracking of the (n/s) * log2(n) model, fitted at s=2^10 (module invariant)
    # and as a <=2x spread of the ratios across all three s (criterion wording)
    ratios = {e: mean_singles[e] / ((n / 2**e) * math.log2(n)) for e in (8, 10, 12)}
    c_track = ratios[10]
    track_ok = (
        max(ratios.values()) <= 2 * min(ratios.values())
        and all(ratios[e] <= 2 * c_track for e in (8, 12))
    )
    ok = mismatches == 0 and m_ok and track_ok
    _report(
        7,
        ok,
        f"mismatches={mismatches}; max|M|={max_m} C'={c_prime:.2f} "
        f"(bound at s=2^12: {2 * c_prime * 12:.1f}); singleton/model ratios={ {e: round(r, 3) for e, r in ratios.items()} }",
    )


# 8. Hard-query distribution at h=16, 1e5 samples.
def test_criterion_8_distribution():
    h = 16
    trees = [ir.build_dyadic_tree(0.0, 1.0, h)]
    batch = ir.sample_hard_queries(np.random.default_rng(2024), trees, 100_000)
    ells = batch["ells"][:, 0]
    x = batch["x"][:, 0]
    m = len(ells)
    counts = np.bincount(ells, minlength=h)
    expect = m / h
    sigma = math.sqrt(m * (1 / h) * (1 - 1 / h))
    hist_ok = bool(np.all(np.abs(counts - expect) <= 3 * sigma))
    rates_ok = True
    details = []
    for j in (1, 4, 8):
        fail_i = ells + j > h - 1
        rate_i = float(np.mean(fail_i))
        ok_i = abs(rate_i - j / h) <= 0.02
        passing = ~fail_i
        depth = ells[passing] + j
        span = np.int64(1) << depth
        ranks = np.minimum(span - 1, (x[passing] * span).astype(np.int64))
        rate_ii = float(np.mean(ranks % 2 == 0))
        ok_ii = abs(rate_ii - 0.5) <= 0.01
        rates_ok = rates_ok and ok_i and ok_ii
        details.append(f"j={j}: I={rate_i:.4f} (want {j / h:.4f}), II|passI={rate_ii:.4f}")
    ok = hist_ok and rates_ok
    _report(8, ok, f"depth buckets within 3sigma: {hist_ok}; " + "; ".join(details))


# 9. Min-cover sanity on 100 tiny instances.
def test_criterion_9_min_cover():
    pts = ir.uniform_random(16, 2, seed=31337)
    struct = ir.build_ids(pts, 1, ir.ID_SET)
    rng = np.random.default_rng(404)
    instances = 0
    cost_ok = 0
    oracle_ok = 0
    attempts = 0
    while instances < 100 and attempts < 10_000:
        attempts += 1
        a, b = sorted(rng.random(2).tolist())
        q = Box((a, NEG_INF), (b, float(rng.random())))
        targets = ir.scan_ids(pts, q)
        if targets.size == 0 or targets.size > 16:
            continue
        tset = frozenset(int(i) for i in targets)
        pool = {frozenset(int(i) for i in ids) & tset for ids, _, _ in ir.usable_sums(struct, q)}
        pool = [s for s in pool if len(s) >= 2]
        if len(pool) > 16:
            continue
        instances += 1
        mc = ir.min_cover(targets, pool)
        mc2 = ir.min_cover_enumerate(targets, pool)
        if mc == mc2:
            oracle_ok += 1
        if ir.query(struct, q).total_cost >= mc:
            cost_ok += 1
    ok = instances == 100 and cost_ok == 100 and oracle_ok == 100
    _report(9, ok, f"{instances} instances; cost>=min_cover: {cost_ok}/100; oracle agreement: {oracle_ok}/100")
