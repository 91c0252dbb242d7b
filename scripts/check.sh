#!/usr/bin/env sh
# Run the Tier-1 test suite, then the benchmark's smoke test.
#
#     sh scripts/check.sh
#
# The smoke test (perfbench/test_smoke.py) lies outside the default pytest
# testpaths.  It fails when a name the benchmark's tracer wraps in
# idemrange.idsstruct is no longer called, so run it after any change there.
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
python3 -m pytest perfbench/test_smoke.py -q
