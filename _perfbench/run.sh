#!/usr/bin/env bash
# Builds topkcleand and the benchmark from this checkout's sources, then
# runs the benchmark with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload read_hot --seed 1 --seconds 10 --trace 0
#
# Everything it builds, writes and caches stays inside the checkout:
# .bench_build (binaries, Go build cache) and .bench_run (stores, logs,
# spans, results).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$build/topkcleand" ./cmd/topkcleand
(cd _perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/topkcleand" -workdir "$root/.bench_run" "$@"
