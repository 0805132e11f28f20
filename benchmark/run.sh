#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload hunt-lean --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay inside the
# checkout, under .bench_build/.
set -euo pipefail
root="$(pwd)"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$src" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
