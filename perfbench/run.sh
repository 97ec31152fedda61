#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; arguments
# pass through (--workload NAME --seed N --seconds S --trace 0|1).
# Everything the build writes (Go build cache, temporary files, the Go
# command's telemetry counters, the binary) stays under .bench_build/ in
# the checkout root, and the build never reaches for the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .) >&2
cd "$root"
exec "$build/perfbench-bin" "$@"
