"""Paired benchmark runs: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD --seeds 501-510 \
        --workloads clustered-idset uniform-2d --seconds 34 [--json runs.json]

Exports the committed files of ``--base`` into a temporary directory with
``git archive`` (nothing is added to the repository's git metadata), then
runs ``perfbench/run.py`` from that copy and from the working tree, one pair
per workload and seed, alternating which side runs first.  Runs are
sequential.  For every end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles over the pairs and the number of pairs the
working tree won (ties count for neither side).  It marks a metric ``gain``
when the working tree won at least 9 of 10 pairs and the medians differ by
more than the base's interquartile range, and ``worse`` when the working
tree's median is worse than the base's by more than the metric's ``bound``
(a share of the base median) in ``BENCHMARK.json``, which is only read.  A
pair of 34 s runs takes about 80 s of wall time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(specs: list[str]) -> list[int]:
    """Seeds from items like ``7`` or ``501-510`` (inclusive)."""
    seeds = []
    for spec in specs:
        first, _, last = spec.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def short_rev(rev: str, cwd: Path = ROOT) -> str:
    """The abbreviated commit id that ``rev`` names (``HEAD`` -> ``e4db883``)."""
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def run_one(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run; its last line of output is the JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def progress(base: dict, change: dict) -> str:
    """One pair's query_p50_ms and setup_s, base then change."""
    return "  ".join(
        f"{metric} base {base['metrics'][metric]['value']:.3f} change {change['metrics'][metric]['value']:.3f}"
        for metric in ("query_p50_ms", "setup_s")
    )


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, better, bound):
    base and change quartiles, wins of the change, gain and worse flags."""
    rows = []
    for m in metrics:
        metric, lower = m["name"], m["better"] == "lower"
        base = np.array([b["metrics"][metric]["value"] for b, _ in pairs])
        new = np.array([c["metrics"][metric]["value"] for _, c in pairs])
        wins = int(np.sum(new < base if lower else new > base))
        bq = np.percentile(base, [25, 50, 75])
        cq = np.percentile(new, [25, 50, 75])
        gain = wins >= 0.9 * len(pairs) and abs(cq[1] - bq[1]) > bq[2] - bq[0]
        worse = (cq[1] - bq[1] if lower else bq[1] - cq[1]) > m["bound"] * abs(bq[1])
        rows.append(
            {"metric": metric, "base": bq.tolist(), "change": cq.tolist(), "wins": wins, "gain": bool(gain), "worse": bool(worse)}
        )
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds, e.g. 501-510 or 7 11")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=34)
    ap.add_argument("--json", type=Path, help="also write every run's result and the summary here")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    record = {"base": short_rev(args.base), "seconds": args.seconds, "runs": {}, "summary": {}}
    with tempfile.TemporaryDirectory(prefix="bench_base_") as tmp:
        base_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", args.base], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                sides = [("base", base_dir), ("change", ROOT)]
                if i % 2:
                    sides.reverse()
                out = {name: run_one(checkout, workload, seed, args.seconds) for name, checkout in sides}
                pairs.append((out["base"], out["change"]))
                print(f"{workload} seed {seed}: {progress(out['base'], out['change'])}", flush=True)
            record["runs"][workload] = [{"seed": s, "base": b, "change": c} for s, (b, c) in zip(seeds, pairs)]
            failed = {side: sum(p[j]["failed"] for p in pairs) for j, side in enumerate(("base", "change"))}
            print(f"\n{workload}: {len(pairs)} pairs, failed queries base {failed['base']} change {failed['change']}")
            print(f"{'metric':22s} {'base median [q1-q3]':>30s} {'change median [q1-q3]':>30s} {'wins':>6s}")
            record["summary"][workload] = summarize(pairs, spec["end_to_end"])
            for row in record["summary"][workload]:
                b, c = row["base"], row["change"]
                print(
                    f"{row['metric']:22s} {b[1]:12.4g} [{b[0]:.4g}-{b[2]:.4g}] {c[1]:12.4g} [{c[0]:.4g}-{c[2]:.4g}]"
                    f" {row['wins']:3d}/{len(pairs)}{'  gain' if row['gain'] else ''}{'  worse' if row['worse'] else ''}"
                )
            print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
