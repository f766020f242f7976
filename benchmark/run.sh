#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run it from the root of a checkout: `bash benchmark/run.sh --workload
# ring_synch_open40k --seed 1 --seconds 20 --trace 0`. Everything the
# build and the run write stays under .bench_build/ in that checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# The go command's cache, temporary files, module path and its own
# configuration and counters all go under .bench_build too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C benchmark -o "$build/minos-benchmark" .
exec "$build/minos-benchmark" "$@"
