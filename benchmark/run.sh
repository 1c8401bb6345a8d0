#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout (Go's
# build cache too, so nothing is written outside the checkout) and runs it
# from there. Every argument goes to the binary; see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/themis-bench" . >&2
cd "$root"
exec "$build/themis-bench" "$@"
