#!/usr/bin/env bash
# Builds the cell benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload rt-udp --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. The build cache, the binary, span
# dumps and full reports all go to .bench_build/ in the checkout; only
# the last line of standard output is the machine-readable result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" -out "$build/results" "$@"
