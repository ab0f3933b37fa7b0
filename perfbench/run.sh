#!/usr/bin/env bash
# Builds the benchmark from source and runs it, one process per workload:
#
#   bash perfbench/run.sh --workload cogcast-1m|paper-mix|traced-audit|all \
#     [--seed N] [--seconds S] [--trace 0|1]
#
# The build log goes to standard error; the last line of standard output is
# the workload's JSON result (one line per workload with "all").
set -euo pipefail
cd "$(dirname "$0")/.."
# The program as shipped: default GC settings.
unset OCAMLRUNPARAM CAMLRUNPARAM
# Build inside this tree only, without dune's shared cache in the home directory.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/crn_perf.exe 1>&2
bin=./_build/default/perfbench/crn_perf.exe
if [ "${1:-}" = "--workload" ] && [ "${2:-}" = "all" ]; then
  shift 2
  for w in cogcast-1m paper-mix traced-audit; do
    "$bin" --workload "$w" "$@"
  done
else
  exec "$bin" "$@"
fi
