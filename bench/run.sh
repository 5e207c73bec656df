#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the
# build writes inside the checkout (.bench_build/ at its root). This is
# the command BENCHMARK.json names; `go run ./bench` does the same with
# the user's own Go cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: the repository's go.mod and internal/ are not beside bench/; nothing to measure" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
