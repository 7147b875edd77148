#!/usr/bin/env bash
# Build Galley and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload ml_joins|subgraph_count|serve_mix \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a Galley checkout.  The last line of standard
# output is the JSON result; build output goes to standard error.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib || ! -d bin ]]; then
  echo "perfbench: run from the root of a Galley checkout" >&2
  exit 2
fi

dune build --root . ./perfbench/main.exe ./bin/galley_cli.exe 1>&2
exec ./_build/default/perfbench/main.exe --galley ./_build/default/bin/galley_cli.exe "$@"
