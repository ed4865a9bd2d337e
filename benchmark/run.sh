#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash benchmark/run.sh --workload pool-steady --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and every temporary file stay under
# .bench_build in the checkout.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$out/benchmark" .
exec "$out/benchmark" "$@"
