#!/bin/sh
# Build the benchmark and the independent certificate checker from
# source, then run one benchmark measurement:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. The JSON result is the last line of
# stdout; see perfbench/perfbench.ml for the arguments. The dune cache is
# off so that the build writes nothing outside the checkout.
set -eu
DUNE_CACHE=disabled dune build --root . --display quiet perfbench/perfbench.exe bin/certcheck.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --certcheck _build/default/bin/certcheck.exe "$@"
