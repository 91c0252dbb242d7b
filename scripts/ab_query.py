"""In-process query A/B: a base revision's package against the working tree.

    python3 scripts/ab_query.py --base HEAD --workload uniform-2d uniform-3d-k2 \
        --seed 7 11 [--passes 3] [--log2-n 10 --queries 50] [--arrays]

Exports the committed ``src/idemrange`` of ``--base`` with ``git archive``
into a temporary directory, under the package name ``idemrange_base``, and
imports it beside the working tree's ``idemrange``.  Each (workload, seed)
pair builds both sides on the same ``perfbench/workloads.make_inputs``
points, weights and queries (``--log2-n`` and ``--queries`` shrink the
workload).

It first checks every pair: each query is answered once on each side with
the audit on, and answers, per-query ``(sums_used, singletons_used)``, the
ordered audit boxes and ``s_plus`` are compared.  It exits 1 if any pair
differs, before timing any.  With ``--arrays`` it also compares the stored
sums array for array: the structure's block map and the orientation
number of each row of its view, then each row's bounds and count, and the
view of the non-empty rows by dim-0 high end (its fields, count and
arrays); a field only one side stores is a difference.  If every pair is
equal, then per pair it counts each side's Python function calls per query
with ``cProfile`` over one untimed pass of every query (numpy's ``take``
and ``compress`` are calls, ``[]`` indexing is not, so the count can move
while the work does not), times every query on both sides,
alternating which side goes first per query, over ``--passes`` passes, and
prints the change/base ratios of the calls per query and of the p50, p95
and mean query time.  So a perf change can show both its speed and that
its answers and costs are the base's.  Structures are rebuilt for the
timing, so only one pair's are held at a time.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402  (puts the working tree's src on sys.path)

import idemrange  # noqa: E402

BASE_PACKAGE = "idemrange_base"


def import_base(rev: str, tmp: Path):
    """The package ``src/idemrange`` of ``rev``, imported as ``idemrange_base``."""
    archive = subprocess.run(["git", "archive", rev, "src/idemrange"], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tmp)], input=archive, check=True)
    (tmp / "src" / "idemrange").rename(tmp / BASE_PACKAGE)
    sys.path.insert(0, str(tmp))
    for name in [m for m in sys.modules if m.partition(".")[0] == BASE_PACKAGE]:
        del sys.modules[name]  # an earlier call's revision
    return importlib.import_module(BASE_PACKAGE)


def build(pkg, inp):
    """One structure and its query list, in ``pkg``'s own types."""
    pts = pkg.WeightedPointSet(inp.points.coords, inp.points.ids, inp.points.weights)
    struct = pkg.build_ids(pts, inp.workload.k, pkg.semigroup_by_name(inp.sg.name), weights=inp.weights)
    return struct, [pkg.Box(q.lo, q.hi) for q in inp.queries]


def build_pair(base, workload: str, seed: int, args):
    """Each side's (package, structure, queries) on one (workload, seed) pair."""
    inp = make_inputs(WORKLOADS[workload], seed, log2_n=args.log2_n, num_queries=args.queries)
    return [(pkg, *build(pkg, inp)) for pkg in (base, idemrange)]


def _same_value(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a is not None and b is not None and np.array_equal(a, b)
    return a == b


def differences(sides) -> list[str]:
    """Every query on which the two sides' answers, costs or ordered audit
    boxes differ, and a differing ``s_plus``."""
    (pkg_b, s_b, q_b), (pkg_c, s_c, q_c) = sides
    out = []
    if s_b.s_plus != s_c.s_plus:
        out.append(f"s_plus: base {s_b.s_plus} change {s_c.s_plus}")
    for i, (qb, qc) in enumerate(zip(q_b, q_c)):
        (ab, audit_b), (ac, audit_c) = pkg_b.query(s_b, qb, return_audit=True), pkg_c.query(s_c, qc, return_audit=True)
        cost_b, cost_c = (ab.sums_used, ab.singletons_used), (ac.sums_used, ac.singletons_used)
        if not _same_value(ab.value, ac.value):
            out.append(f"query {i}: answers differ")
        if cost_b != cost_c:
            out.append(f"query {i}: cost base {cost_b} change {cost_c}")
        if [(b.lo, b.hi) for b in audit_b] != [(b.lo, b.hi) for b in audit_c]:
            out.append(f"query {i}: audit boxes differ")
    return out


def _same_field(x, y) -> bool:
    if isinstance(x, dict):
        return isinstance(y, dict) and list(x.items()) == list(y.items())
    if isinstance(x, tuple):  # a field added or dropped is a difference
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same_field, x, y))
    return np.array_equal(x, y)


def array_differences(sides) -> list[str]:
    """The stored-sum fields in which the two sides' structures differ,
    counting a field that only one side has: the block map and the view's
    orientation numbers on the structure, the rest on its ``_SumIndex``."""
    (_, b, _), (_, c, _) = sides
    fields = [(b, c, n) for n in ("blocks", "codes")]
    fields += [(b.sums, c.sums, n) for n in ("box_lo", "box_hi", "counts", "by_hi0")]
    return [
        f"stored {n} differ"
        for x, y, n in fields
        if not (hasattr(x, n) and hasattr(y, n) and _same_field(getattr(x, n), getattr(y, n)))
    ]


def calls_per_query(side) -> float:
    """Python function calls ``cProfile`` counts per ``query`` over one pass
    of the side's queries.  The profiler's raw entries are summed, one per
    function: ``pstats`` would keep one of the functions that share a
    (file, line, name) label, as every namedtuple ``__new__`` does."""
    pkg, struct, qs = side
    prof = cProfile.Profile()
    prof.enable()
    for q in qs:
        pkg.query(struct, q)
    prof.disable()
    return sum(e.callcount for e in prof.getstats()) / len(qs)


def timed(sides, passes: int) -> np.ndarray:
    """Per-query seconds, shape (2, passes * queries): base row, change row."""
    nq = len(sides[0][2])
    t = np.empty((2, passes, nq))
    for p in range(passes):
        for i in range(nq):
            for s in ((0, 1) if (i + p) % 2 else (1, 0)):
                pkg, struct, qs = sides[s]
                t0 = time.perf_counter()
                pkg.query(struct, qs[i])
                t[s, p, i] = time.perf_counter() - t0
    return t.reshape(2, -1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    ap.add_argument("--workload", required=True, nargs="+", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, nargs="+")
    ap.add_argument("--passes", type=int, default=3)
    ap.add_argument("--log2-n", type=int, help="point count 2^N instead of the workload's")
    ap.add_argument("--queries", type=int, help="number of queries instead of the workload's")
    ap.add_argument("--arrays", action="store_true", help="also compare the stored sums array for array")
    args = ap.parse_args(argv)

    cases = [(workload, seed) for workload in args.workload for seed in args.seed]
    with tempfile.TemporaryDirectory(prefix="ab_base_") as tmp:
        base = import_base(args.base, Path(tmp))
        try:
            differing = 0
            for workload, seed in cases:
                pair = build_pair(base, workload, seed, args)
                diffs = differences(pair) + (array_differences(pair) if args.arrays else [])
                for line in diffs[:20]:
                    print(line)
                label = f"{workload} seed {seed}, base {args.base}"
                equal = ("stored arrays, " if args.arrays else "") + "answers, costs, audits and s_plus equal"
                print(f"{label}: {len(diffs)} differences" if diffs else f"{label}: {equal}")
                differing += bool(diffs)
            if differing:
                print(f"{differing} of {len(cases)} (workload, seed) pairs differ; nothing timed")
                return 1
            for workload, seed in cases:
                pair = build_pair(base, workload, seed, args)
                print(f"\n{workload} seed {seed}: {len(pair[0][2])} queries x {args.passes} passes")
                b, c = (calls_per_query(side) for side in pair)
                print(f"calls per query  base {b:.1f}  change {c:.1f}  ratio {c / b:.3f}")
                t_base, t_change = timed(pair, args.passes)
                for name, stat in (("p50", np.median), ("p95", lambda a: np.percentile(a, 95)), ("mean", np.mean)):
                    b, c = stat(t_base) * 1e3, stat(t_change) * 1e3
                    print(f"{name:5s} base {b:8.3f} ms  change {c:8.3f} ms  ratio {c / b:.3f}")
        finally:
            sys.path.remove(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
