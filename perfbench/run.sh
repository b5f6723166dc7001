#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the
# repository root; every argument passes through to the program:
#
#   bash perfbench/run.sh --workload q1-steady --seed 1 --seconds 10 --trace 0
#
# Build caches and outputs stay under .bench_build in the working
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
