#!/bin/bash
# The driver's entry point: build the benchmark from source inside the
# checkout — build cache, module path and temporary files included, so
# nothing outside the checkout is written — then run it with the driver's
# arguments:
#   bash benchmark/run.sh --workload fischer --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
