#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# Usage (from the root of a checkout):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build leaves behind stays inside the checkout: the Go
# build cache and the binary go to .bench_build/, run artifacts to
# benchmark/out/. The build fails (non-zero exit, no result line) when the
# repo's own sources are not there.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# The go command's own caches, module path and telemetry counters too.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$root/benchmark" -o "$build/ugf-benchmark" .
cd "$root"
exec "$build/ugf-benchmark" "$@"
