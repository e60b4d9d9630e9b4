#!/usr/bin/env bash
# The benchmark's entry point for the driver: build dlbench from this
# checkout's sources, inside the checkout, and run it with the driver's
# arguments. `go run ./benchmark` does the same with the user's own
# build cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
go build -o "$build/dlbench" ./benchmark
exec "$build/dlbench" "$@"
