#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload. Usage, from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not an sbm source tree (no dune-project or lib/)" >&2
  exit 2
fi
# A shell that did not load the opam environment has no dune on PATH.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
