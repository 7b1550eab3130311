#!/bin/bash
# Builds the harness from source and runs it with the given arguments. The
# binary and Go's build cache go under .bench_build/ at the root of the
# checkout, so nothing is read or written outside it; the harness replaces
# this shell, so no process is left behind. In a directory that holds only
# BENCHMARK.json and benchmark/ the build fails (the module it measures is
# not there) and this exits non-zero without a result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/farm-benchmark" .)
exec "$build/farm-benchmark" "$@"
