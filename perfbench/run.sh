#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the repository root:
#   bash perfbench/run.sh --workload suite-ci --seed 1 --seconds 30 --trace 0
# Everything the build writes stays under .bench_build in the working
# directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
