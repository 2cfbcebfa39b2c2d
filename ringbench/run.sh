#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash ringbench/run.sh --workload cold-grid --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build, the Go caches and the Go
# command's own config and telemetry files live under .bench_build/ there,
# so nothing outside the checkout is written, and no module is fetched:
# the benchmark module depends only on the repository module one
# directory up.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C "$bench" build -o "$out/ringbench" .
exec "$out/ringbench" "$@"
