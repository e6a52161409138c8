#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload lookup_classic --seed 1 --seconds 5 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, temporary files, the binary) goes under .bench_build, so
# the run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
