#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-route --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build in
# the current directory, so nothing is written outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
