#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: keeps everything `go run` writes
# (build cache, temporary binaries) inside the checkout, then runs the
# harness from its own module directory. Developers can equally run
# `go run -C bench . -workload all`.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
exec go run . "$@"
