#!/usr/bin/env bash
# Tier-1: the single entry point CI and pre-commit both call.
#
#   tools/run_tier1.sh            # full gate
#   REPRO_TEST_TIMEOUT_SCALE=4 tools/run_tier1.sh   # slow/loaded machines
#
# Eight stages, all required:
#   1. the pytest suite (-x: first failure stops the run) — with
#      coverage enforcement when pytest-cov is installed;
#   2. public API surface: regenerated in-memory, diffed against the
#      checked-in tests/api_surface.txt;
#   3. golden corpus: fixtures + rendered views regenerated, diffed
#      byte-for-byte against tests/golden/data;
#   4. pool smoke: a 2-worker pre-forked pool serves one JSON and one
#      columnar render (decoded and cross-checked) and shuts down;
#   5. corpus smoke: an ingest subprocess is kill -9'd mid-commit and
#      the reopened corpus recovers it bit-identically;
#   6. query smoke: one composed query runs bit-identically across the
#      in-memory / .rpdb / .rpstore backends, through the search()
#      shim, and over /v1/query (JSON == columnar; a repeat is a
#      byte-identical cache hit, a derive forces a miss at generation
#      1), plus a clean two-profile corpus diagnosis;
#   7. trace smoke: a two-rank trace answers a windowed query
#      bit-identically from memory and from a time-partitioned chunked
#      store (pruning verified), a pre-commit writer crash leaves no
#      store, and /v1/trace serves matching JSON and columnar slabs;
#   8. coverage ratchet: the fail_under floor may never decrease.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

cov_args=()
if python -c 'import pytest_cov' 2>/dev/null; then
    # floor comes from [tool.coverage.report] fail_under in pyproject.toml
    cov_args=(--cov=repro --cov-report=term-missing:skip-covered)
fi

echo "== tier-1: pytest =="
python -m pytest -x -q "${cov_args[@]}"

echo "== tier-1: api surface =="
python tools/gen_api_surface.py | diff -u tests/api_surface.txt - \
    || { echo "api surface drifted; if intentional:"; \
         echo "  PYTHONPATH=src python tools/gen_api_surface.py --write"; \
         exit 1; }
echo "api surface clean"

echo "== tier-1: golden corpus =="
python tools/gen_golden.py

echo "== tier-1: pool smoke =="
python tools/pool_smoke.py

echo "== tier-1: corpus smoke =="
python tools/corpus_smoke.py

echo "== tier-1: query smoke =="
python tools/query_smoke.py

echo "== tier-1: trace smoke =="
python tools/trace_smoke.py

echo "== tier-1: coverage ratchet =="
python tools/check_coverage_ratchet.py

echo "tier-1 OK"
