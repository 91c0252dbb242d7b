#!/usr/bin/env sh
# Fail on any branch on a semigroup's name or any read of it outside
# semigroup.py, on an identity test against a semigroup constant, or on a
# read of ``Semigroup.op`` outside semigroup.py and rangetree.py; then run
# the Tier-1 test suite and the benchmark's smoke test.
#
#     sh scripts/check.sh
#
# The smoke test (perfbench/test_smoke.py) lies outside the default pytest
# testpaths.  It fails when a name the benchmark's tracer wraps in
# idemrange.idsstruct is no longer called, so run it after any change there.
#
# Not run here, as they take minutes: scripts/bench_pairs.py, which runs the
# benchmark alternately on a base revision and the working tree and prints
# each side's quartiles and the working tree's win count per metric; and
# scripts/ab_query.py, which checks in one process that a base revision and
# the working tree give equal answers, costs, audits and s_plus on one
# workload, then prints their per-query time ratios.
set -e
cd "$(dirname "$0")/.."
# each Semigroup carries its own operations: no code may branch on a semigroup's name,
# nor read it outside semigroup.py (a dict keyed by name would be the same branch)
if grep -rnE "\.name (==|!=)" src/idemrange; then
    echo "check.sh: branch on a semigroup name (listed above)" >&2
    exit 1
fi
if grep -rnE --exclude=semigroup.py "\.name\b" src/idemrange; then
    echo "check.sh: .name read outside semigroup.py (listed above)" >&2
    exit 1
fi
# "is ID_SET" is the same branch by another name
if grep -rnE "\bis (not )?(MAX_REAL|BIT_OR64|ID_SET)\b" src/idemrange; then
    echo "check.sh: identity test against a semigroup constant (listed above)" >&2
    exit 1
fi
# whether a box's value is stored or listed on demand follows from op, and
# only rangetree.py may decide it
if grep -rnE --exclude=semigroup.py --exclude=rangetree.py "\.op\b" src/idemrange; then
    echo "check.sh: .op read outside semigroup.py and rangetree.py (listed above)" >&2
    exit 1
fi
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
python3 -m pytest perfbench/test_smoke.py -q
