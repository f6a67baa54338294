#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments (--workload, --seed, --seconds, --trace).  Build output
# goes to standard error; the result is the last line of standard output.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
