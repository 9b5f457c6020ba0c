#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# program (see README.md). Everything it writes stays in the checkout:
# the build cache and the binary under .bench_build/, traces and results
# under bench/out/.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build"
# The go command's caches, module path and counters all move under it.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$bench" -o "$build/enginebench" .
export ENGAGE_BENCH_DIR="$bench"
exec "$build/enginebench" "$@"
