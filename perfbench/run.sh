#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs one
# workload (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload paper-r1-r5 --seed 0 --seconds 25 --trace 0
#
# Build output goes to stderr; the result object is the last line of
# stdout. Exits non-zero, printing no result, when the build fails.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Keep every build file inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
