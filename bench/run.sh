#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json: "command"). Builds the
# bench program from source inside the checkout — build cache, binary and
# temporary files all live under .bench_build — and runs it with the
# arguments it was given:
#
#   bash bench/run.sh --workload young --seed 1 --seconds 10 --trace 0
#
# bench/ is a Go module of its own (bench/go.mod) that replaces the module
# nestedsg with the checkout root, so in a directory that holds only
# BENCHMARK.json and bench/ the build fails and this script exits non-zero
# without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

# go build is incremental: after the first run it only checks that nothing
# changed.
(cd "$here" && go build -o "$build/nestedbench" .)

exec "$build/nestedbench" -out "$here/out" "$@"
