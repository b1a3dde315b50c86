#!/usr/bin/env bash
# Builds cfbench from source and runs it with the arguments given, keeping
# every byte the Go toolchain writes (build cache, temp files, binaries)
# inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/cfbench" .
exec "$build/cfbench" "$@"
