#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload micro-read-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

# A directory without the repository's sources fails here: the
# benchmark module resolves sconrep from the parent directory.
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
