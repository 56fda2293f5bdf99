#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
# Build products go to .bench_build/ at the checkout root; the dune
# cache is off so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe "$@"
