#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload tall-narrow --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh self-check -runs 10 -sets 2
#   bash perfbench/run.sh regimes -seeds 1,2,3
#
# Build outputs, the Go build cache and run summaries all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
# The go command's caches, module path and telemetry counters
# (under XDG_CONFIG_HOME) all go to the build directory too.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS= GOWORK=off
export PERFBENCH_OUT=$build/perfbench
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
cd "$root"
exec "$build/perfbench-bin" "$@"
