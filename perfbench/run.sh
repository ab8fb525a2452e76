#!/usr/bin/env bash
# Build the benchmark from the checkout it is run in, then run it.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to .bench_build (kept
# apart from the _build tree a developer's dune uses); the build log goes
# to stderr, so the last line of stdout is the benchmark's JSON result.
set -euo pipefail

dune build --root . --build-dir .bench_build --profile release \
  ./perfbench/main.exe >&2
exec .bench_build/default/perfbench/main.exe "$@"
