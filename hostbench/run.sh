#!/bin/sh
# Build the host-time benchmark from source, then run it.
#
#   sh hostbench/run.sh --workload steady|churn --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the benchmark's
# report, ending in one JSON line, goes to stdout.
set -e
DUNE_CACHE=disabled dune build --root . --display quiet ./hostbench/main.exe 1>&2
exec ./_build/default/hostbench/main.exe "$@"
